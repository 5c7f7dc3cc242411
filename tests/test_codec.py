"""The strict-JSON file formats: one pinned message per fault kind and
document kind, the exact message of every leaf and key of one generated
task, program, tree and trace line, and a property over generated tasks,
programs and traces."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopfloor.bench import Tier, generate_instance
from shopfloor.errors import ParseError, ValidationError
from shopfloor.executor import execute, parse_trace, trace_to_jsonl
from shopfloor.graph import build_graph
from shopfloor.model import (
    INT,
    MACHINE,
    OPERATION,
    PROGRAM,
    SCHEDULE_RECORD,
    STR,
    Machine,
    Operation,
    OperationType,
    Record,
    ScheduleRecord,
    Wrap,
    canonical_json,
    parse_task_instance,
    serialize_task_instance,
)
from shopfloor.solve import schedule_from_record
from shopfloor.tree import assemble_program, load_reference_tree, parse_tree, serialize_tree

TREE = load_reference_tree()


def _documents(tier: Tier, seed: int) -> dict[str, str]:
    """Canonical task, program, schedule, tree and trace text of one task."""
    task = generate_instance(tier, seed)
    gt = task.ground_truth
    program = assemble_program(TREE, gt.operations, gt.allocation, task.scene)
    graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
    schedule = schedule_from_record(graph, gt.schedule)
    trace = execute(schedule, program, task.scene, gt.operations).trace
    return {
        "task": serialize_task_instance(task),
        "program": PROGRAM.serialize(program),
        "schedule": SCHEDULE_RECORD.serialize(gt.schedule),
        "tree": serialize_tree(TREE),
        "trace": trace_to_jsonl(trace),
    }


# Each document kind, read back to its canonical text through its public
# entry point; a trace document is one of its lines.
READ = {
    "task": lambda doc: serialize_task_instance(parse_task_instance(canonical_json(doc))),
    "program": lambda doc: PROGRAM.serialize(PROGRAM.load(doc, "program")),
    "schedule": lambda doc: SCHEDULE_RECORD.serialize(SCHEDULE_RECORD.load(doc, "schedule")),
    "tree": lambda doc: serialize_tree(parse_tree(canonical_json(doc))),
    "trace": lambda doc: trace_to_jsonl(parse_trace(json.dumps(doc))),
}

DOCS = _documents(Tier.SINGLE_ROBOT, 3)


def _doc(kind: str):
    text = DOCS[kind]
    return json.loads(text.splitlines()[0] if kind == "trace" else text)


def _set(path, value):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


def _delete(*path):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        del doc[last]
    return edit


class _Text(str):
    pass


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        # wrong type
        ("task", _set(("scene", "machines", 0, "exclusive"), "yes"),
         "task.scene.machines[0].exclusive: expected a boolean, got str"),
        ("program", _set(("calls", 0, "args", "robot"), 3),
         "program.calls[0].args.robot: expected a string, got int"),
        ("schedule", _set(("makespan",), True),
         "schedule.makespan: expected an integer, got bool"),
        ("tree", _set(("nodes", 0, "children"), {}),
         "tree.nodes[0].children: expected an array, got dict"),
        ("trace", _set(("operations", 0, "skills"), "none"),
         "trace:1.operations[0].skills: expected an array, got str"),
        # missing key
        ("task", _delete("ground_truth", "operations", 0, "workpiece"),
         "task.ground_truth.operations[0]: missing required key 'workpiece'"),
        ("program", _delete("calls", 0, "wrapper"),
         "program.calls[0]: missing required key 'wrapper'"),
        ("schedule", _delete("start_steps"),
         "schedule: missing required key 'start_steps'"),
        ("tree", _delete("nodes", 1, "snippet"),
         "tree.nodes[1]: missing required key 'snippet'"),
        ("trace", _delete("operations", 0, "robot"),
         "trace:1.operations[0]: missing required key 'robot'"),
        # unknown keys, reported sorted
        ("task", _set(("scene", "robots", 0, "speed"), 3),
         "task.scene.robots[0]: unknown keys: speed"),
        ("program", _set(("executions",), {"exec_0": [{"skill": "attach", "args": [], "x": 1}]}),
         "program.executions.exec_0[0]: unknown keys: x"),
        ("schedule", _set(("note",), "b"),
         "schedule: unknown keys: note"),
        ("tree", _set(("nodes", 2, "weight"), 1),
         "tree.nodes[2]: unknown keys: weight"),
        ("trace", _set(("zz",), 1),
         "trace:1: unknown keys: zz"),
        # unknown enum value
        ("task", _set(("ground_truth", "operations", 0, "type"), "painting"),
         "task.ground_truth.operations[0].type: unknown operation type 'painting'"),
        ("task", _set(("ground_truth", "operations", 0, "type"), "general"),
         "task.ground_truth.operations[0].type: unknown operation type 'general'"),
        ("tree", _set(("nodes", 1, "type"), "painting"),
         "tree.nodes[1].type: unknown node type 'painting'"),
        # single-type arrays and maps: a str subclass is not a string, a
        # boolean not an integer, an integer not a string in a set either
        ("program", _set(("executions", "exec_0_1_4", 0, "args", 2), _Text("on")),
         "program.executions.exec_0_1_4[0].args[2]: expected a string, got _Text"),
        ("tree", _set(("nodes", 0, "children"), [1, True]),
         "tree.nodes[0].children[1]: expected an integer, got bool"),
        ("schedule", _set(("start_steps", "o3"), False),
         "schedule.start_steps.o3: expected an integer, got bool"),
        ("task", _set(("scene", "robots", 0, "devices"), ["bracket_camera", 5, "polisher"]),
         "task.scene.robots[0].devices[1]: expected a string, got int"),
        # a node applies where its snippet's skills can run: the tree
        # format has no condition
        ("tree", _set(("nodes", 1, "condition"), "true"),
         "tree.nodes[1]: unknown keys: condition"),
    ],
)
def test_each_fault_kind_names_its_path(kind, edit, message):
    doc = _doc(kind)
    edit(doc)
    with pytest.raises(ParseError) as exc:
        READ[kind](doc)
    assert str(exc.value) == message


def test_missing_keys_are_reported_before_unknown_ones():
    doc = _doc("schedule")
    del doc["makespan"]
    doc["extra"] = 1
    with pytest.raises(ParseError, match=r"^schedule: missing required key 'makespan'$"):
        READ["schedule"](doc)


def test_general_node_type_loads_as_none():
    # As an operation type, "general" is rejected (pinned above).
    doc = _doc("tree")
    typed = next(node for node in doc["nodes"] if node["type"] != "general")
    typed["type"] = "general"
    tree = parse_tree(canonical_json(doc))
    assert tree.nodes[typed["index"]].op_type is None


def _leaves(doc, path=()):
    """(path, value) of every scalar in doc."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _leaves(value, path + (index,))
    else:
        yield path, doc


# A value of another JSON type for each leaf type; no codec accepts it.
_OTHER_TYPE = {str: [7, None, ["x"]], int: ["7", True, 1.5, None], bool: [1, "true", None]}
# A value of the same type, which may break an invariant; a bool is flipped.
_SAME_TYPE = {str: ["zz", ""], int: [-1, 10**6]}


@settings(max_examples=60, deadline=None)
@given(
    tier=st.sampled_from(list(Tier)),
    seed=st.integers(0, 200),
    kind=st.sampled_from(["task", "program", "trace"]),
    data=st.data(),
)
def test_single_leaf_mutations_fail_cleanly(tier, seed, kind, data):
    text = _documents(tier, seed)[kind]
    if kind == "trace":
        # Every document reads back byte for byte; the trace as a whole too.
        assert trace_to_jsonl(parse_trace(text)) == text
        lines = text.splitlines()
        line = data.draw(st.integers(0, len(lines) - 1), label="line")
        doc = json.loads(lines[line])
        assert READ[kind](doc) == lines[line] + "\n"
    else:
        doc = json.loads(text)
        assert READ[kind](doc) == text
    path, value = data.draw(st.sampled_from(list(_leaves(doc))), label="leaf")
    same_type = data.draw(st.booleans(), label="same type")
    if not same_type:
        choices = _OTHER_TYPE[type(value)]
    elif type(value) is bool:
        choices = [not value]
    else:
        choices = _SAME_TYPE[type(value)]
    replacement = data.draw(st.sampled_from(choices), label="value")
    mutated = copy.deepcopy(doc)
    _set(path, replacement)(mutated)
    if same_type:
        # Shape holds, so it loads or breaks an invariant; nothing else.
        try:
            READ[kind](mutated)
        except (ParseError, ValidationError):
            pass
    else:
        with pytest.raises(ParseError, match=r"expected an? \w+, got \w+"):
            READ[kind](mutated)


# Where each document kind's messages start, as READ names it.
_ROOT = {"task": "task", "program": "program", "tree": "tree", "trace": "trace:1"}
# The key under which a JSON object has free keys (a map, not a record).
_MAP_KEYS = {"allocation", "precedence", "args", "binding", "wrappers", "executions", "start_steps"}
# Record keys that may be left out.
_OPTIONAL_KEYS = {"ground_truth", "program", "schedule", "machine_2", "source"}
_NOUN = {str: "a string", int: "an integer", bool: "a boolean"}


def _rendered(kind, path):
    return _ROOT[kind] + "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path)


def _objects(doc, path=()):
    """(path, value) of every JSON object in doc."""
    if isinstance(doc, dict):
        yield path, doc
        for key, value in doc.items():
            yield from _objects(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _objects(value, path + (index,))


def _fault(kind, doc):
    """The ParseError text READ gives for doc, or None when it raises none."""
    try:
        READ[kind](doc)
    except ParseError as exc:
        return str(exc)
    except ValidationError:
        pass
    return None


@pytest.mark.parametrize("kind", sorted(_ROOT))
def test_every_leaf_of_another_type_names_its_exact_path(kind):
    doc = _doc(kind)
    checked = 0
    for path, value in _leaves(doc):
        for replacement in _OTHER_TYPE[type(value)]:
            mutated = copy.deepcopy(doc)
            _set(path, replacement)(mutated)
            expected = (
                f"{_rendered(kind, path)}: expected {_NOUN[type(value)]}, "
                f"got {type(replacement).__name__}"
            )
            assert _fault(kind, mutated) == expected
            checked += 1
    assert checked > 30


@pytest.mark.parametrize("kind", sorted(_ROOT))
def test_every_missing_and_unknown_key_names_its_parent(kind):
    doc = _doc(kind)
    records = 0
    for path, obj in _objects(doc):
        is_map = bool(path) and path[-1] in _MAP_KEYS
        for key in obj:
            mutated = copy.deepcopy(doc)
            _delete(*path, key)(mutated)
            if is_map or key in _OPTIONAL_KEYS:
                assert _fault(kind, mutated) is None, (path, key)
            else:
                assert _fault(kind, mutated) == (
                    f"{_rendered(kind, path)}: missing required key '{key}'"
                )
        if not is_map:
            mutated = copy.deepcopy(doc)
            _set(path + ("zz",), 1)(mutated)
            assert _fault(kind, mutated) == f"{_rendered(kind, path)}: unknown keys: zz"
            records += 1
    assert records > 3


@pytest.mark.parametrize(
    "codecs, named",
    [
        ({"start_steps": INT, "makespan": INT}, "missing: source; unknown: -"),
        ({"start_steps": INT, "makespan": INT, "source": STR, "sources": STR},
         "missing: -; unknown: sources"),
    ],
)
def test_a_record_takes_exactly_one_codec_per_constructor_parameter(codecs, named):
    with pytest.raises(TypeError) as exc:
        Record(ScheduleRecord, **codecs)
    assert str(exc.value) == (
        f"Record(ScheduleRecord) takes one codec per constructor parameter; {named}"
    )


def test_a_renamed_key_must_name_a_constructor_parameter():
    with pytest.raises(TypeError, match=r"^Record\(ScheduleRecord\) .*; unknown: span$"):
        Record(ScheduleRecord, keys={"span": "steps"}, start_steps=INT, makespan=INT, source=STR)


def test_a_wrap_needs_a_constructor_of_one_parameter():
    with pytest.raises(TypeError, match=r"^Wrap\(ScheduleRecord\): .* 3 parameters, not 1$"):
        Wrap(ScheduleRecord, INT)


def test_record_keys_follow_the_constructor_and_only_a_none_default_is_optional():
    machine = Machine("m1", "table")
    doc = json.loads(MACHINE.serialize(machine))
    assert list(doc) == ["id", "name", "exclusive", "points", "held_workpieces"]
    # exclusive defaults to True, so its key is still required
    del doc["exclusive"]
    with pytest.raises(ParseError, match=r"^machine: missing required key 'exclusive'$"):
        MACHINE.load(doc, "machine")
    # machine_2 defaults to None: left out of the text, loaded as None
    op = Operation("o1", OperationType.POLISHING, "w1", "m1")
    doc = json.loads(OPERATION.serialize(op))
    assert doc == {"id": "o1", "type": "polishing", "workpiece": "w1", "machine_1": "m1"}
    assert OPERATION.load(doc, "operation") == op
