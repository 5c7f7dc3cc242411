"""Core model: strict parsing, canonical serialization, validation."""

from __future__ import annotations

import inspect
import json
import math
import os
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from shopfloor.bench import Tier, generate_instance
from shopfloor.errors import ParseError, ValidationError
from shopfloor.executor import classify_args
from shopfloor.graph import DisjunctiveGraph
from shopfloor.model import (
    SCENE,
    Allocation,
    OperationType,
    PrecedenceSet,
    Scene,
    at_label,
    canonical_json,
    parse_at_label,
    parse_json,
    parse_task_instance,
    serialize_task_instance,
    validate_planner_output,
    validate_scene,
    write_file,
    _plan_holds,
    _walk_by_rule,
)
from shopfloor.tree import ProcessTree, TreeNode

from conftest import (
    make_machine, make_op, make_robot, make_scene, make_workpiece, renamed_plan, simple_plan,
)
from strategies import plan_triples


# ---------------------------------------------------------------------------
# label helpers


def test_at_label_round_trip():
    assert at_label("pallet_1") == "at(pallet_1)"
    assert parse_at_label("at(pallet_1)") == "pallet_1"
    assert parse_at_label("polished") is None


@pytest.mark.parametrize(
    "arg,role", [("{robot}", "robot"), ("{machine_1}", "machine_1"),
                 ("{machine_2}", "machine_2"), ("{workpiece}", "workpiece")]
)
def test_role_placeholders(arg, role):
    assert classify_args((arg,)) == (("role", role, None),)


def test_non_role_args_are_not_placeholders():
    assert classify_args(("conveyor",)) == (("literal", "conveyor", None),)
    assert classify_args(("{point:Photo_Point}",)) == (("point", "Photo_Point", "machine_1"),)
    assert classify_args(("{device:camera}",)) == (("device", "camera", None),)


@pytest.mark.parametrize(
    "arg,kind,name",
    [
        # one trailing LF is allowed after a device or a point, not a role
        ("{device:camera}\n", "device", "camera"),
        ("{point:Photo_Point}\n", "point", "Photo_Point"),
        ("{robot}\n", "literal", "{robot}\n"),
        ("{device:camera}\n\n", "literal", "{device:camera}\n\n"),
        # a name is non-empty, may hold a colon or an LF, and holds no brace
        ("{device:}", "literal", "{device:}"),
        ("{device:a:b}", "device", "a:b"),
        ("{point:a\nb}", "point", "a\nb"),
        ("{point:{x}}", "literal", "{point:{x}}"),
        ("{device:a}}", "literal", "{device:a}}"),
        ("{devices:a}", "literal", "{devices:a}"),
        ("{ robot}", "literal", "{ robot}"),
        ("{point:a", "literal", "{point:a"),
        ("", "literal", ""),
    ],
)
def test_classify_args_grammar_edges(arg, kind, name):
    ((got_kind, got_name, _),) = classify_args((arg,))
    assert (got_kind, got_name) == (kind, name)


def test_classify_args_kinds_and_point_context():
    args = ("{robot}", "{machine_2}", "{point:Drop_Point}", "{device:camera}", "on")
    assert classify_args(args) == (
        ("role", "robot", None),
        ("role", "machine_2", None),
        ("point", "Drop_Point", "machine_2"),
        ("device", "camera", None),
        ("literal", "on", None),
    )
    # without a machine-role placeholder a point lives on machine_1
    assert classify_args(("{point:Photo_Point}",)) == (
        ("point", "Photo_Point", "machine_1"),
    )


# ---------------------------------------------------------------------------
# scene lookups


def test_scene_lookups_with_duplicate_ids_return_the_first_entry():
    first, second = make_robot("r1", devices=("camera",)), make_robot("r1", devices=())
    m_first, m_second = make_machine("table_1", name="first"), make_machine("table_1", name="second")
    w_first, w_second = make_workpiece("w1", kind="first"), make_workpiece("w1", kind="second")
    scene = Scene(robots=(first, second), machines=(m_first, m_second),
                  workpieces=(w_first, w_second))
    assert scene.robot("r1") is first
    assert scene.machine("table_1") is m_first
    assert scene.workpiece("w1") is w_first


def test_scene_lookup_gives_the_first_entry_of_an_id_or_none(scene):
    """An unknown id gives None, and a duplicated id gives its first entry."""
    scene = Scene(robots=scene.robots + (make_robot("r1", devices=()),),
                  machines=scene.machines + (make_machine("table_1", name="second"),),
                  workpieces=scene.workpieces + (make_workpiece("w1", kind="second"),))
    ids = ["r1", "r2", "conveyor", "table_1", "pallet_1", "w1", "w2", "nowhere", ""]
    for entities, lookup in ((scene.robots, scene.robot),
                             (scene.machines, scene.machine),
                             (scene.workpieces, scene.workpiece)):
        for entity_id in ids:
            first = next((e for e in entities if e.id == entity_id), None)
            assert lookup(entity_id) is first


def test_scene_equality_ignores_its_indexes(scene):
    copy = Scene(robots=scene.robots, machines=scene.machines, workpieces=scene.workpieces)
    assert copy == scene and hash(copy) == hash(scene)
    assert "_robots" not in repr(scene)


@pytest.mark.parametrize("cls", [Scene, TreeNode, ProcessTree, DisjunctiveGraph])
def test_a_value_class_names_its_constructor_parameters_in_fields(cls):
    # the codecs, equality, hashing and repr all read _fields
    assert tuple(inspect.signature(cls).parameters) == cls._fields
    assert cls._field_defaults == {}


# ---------------------------------------------------------------------------
# scene validation


def test_valid_scene_has_no_violations(scene):
    assert validate_scene(scene) == []


def test_duplicate_robot_id_rejected():
    scene = make_scene(robots=(make_robot("r1"), make_robot("r1")))
    assert any("duplicate robot id" in v for v in validate_scene(scene))


def test_dangling_reachable_machine_rejected():
    scene = make_scene(robots=(make_robot("r1", reachable=("nowhere",)),))
    assert any("unknown machine 'nowhere'" in v for v in validate_scene(scene))


def test_workpiece_must_be_held_exactly_once():
    wps = (make_workpiece("w1", states=()),)
    machines = (
        make_machine("m1", held=("w1",)),
        make_machine("m2", held=("w1",)),
    )
    scene = make_scene(robots=(make_robot("r1", reachable=("m1", "m2")),),
                       machines=machines, workpieces=wps)
    assert any("held by both" in v for v in validate_scene(scene))

    machines = (make_machine("m1"), make_machine("m2"))
    scene = make_scene(robots=(make_robot("r1", reachable=("m1", "m2")),),
                       machines=machines, workpieces=wps)
    assert any("not held by any machine" in v for v in validate_scene(scene))


def test_state_labels_must_come_from_vocabulary():
    wps = (make_workpiece("w1", states=("lacquered",)),)
    machines = (make_machine("m1", held=("w1",)),)
    scene = make_scene(robots=(make_robot("r1", reachable=("m1",)),),
                       machines=machines, workpieces=wps)
    assert any("unknown state label" in v for v in validate_scene(scene))


def test_at_state_must_reference_existing_machine():
    wps = (make_workpiece("w1", states=("at(mars)",)),)
    machines = (make_machine("m1", held=("w1",)),)
    scene = make_scene(robots=(make_robot("r1", reachable=("m1",)),),
                       machines=machines, workpieces=wps)
    assert any("unknown machine in state" in v for v in validate_scene(scene))


# ---------------------------------------------------------------------------
# planner-output validation


def test_valid_plan_passes(scene, plan):
    ops, alloc, prec = plan
    report = validate_planner_output(ops, alloc, prec, scene)
    assert report.ok
    assert report.violations == ()


def test_transport_requires_machine_2(scene, plan):
    ops, alloc, prec = plan
    broken = list(ops)
    broken[0] = make_op("t1", OperationType.TRANSPORT, "w1", "conveyor", None)
    report = validate_planner_output(broken, alloc, prec, scene)
    assert any("missing machine_2" in v for v in report.violations)


def test_machine_2_forbidden_outside_transport(scene, plan):
    ops, alloc, prec = plan
    broken = list(ops)
    broken[1] = make_op("p1", OperationType.POLISHING, "w1", "table_1", "pallet_1")
    report = validate_planner_output(broken, alloc, prec, scene)
    assert any("carries machine_2" in v for v in report.violations)


def test_machine_1_equal_machine_2_rejected(scene, plan):
    ops, alloc, prec = plan
    broken = list(ops)
    broken[0] = make_op("t1", OperationType.TRANSPORT, "w1", "conveyor", "conveyor")
    report = validate_planner_output(broken, alloc, prec, scene)
    assert any("identical machine_1 and machine_2" in v for v in report.violations)


def test_allocation_must_be_total(scene, plan):
    ops, alloc, prec = plan
    partial = Allocation(by_op={k: v for k, v in alloc.by_op.items() if k != "p2"})
    report = validate_planner_output(ops, partial, prec, scene)
    assert any("no allocated robot" in v for v in report.violations)


def test_unreachable_machine_reported(scene, plan):
    ops, alloc, prec = plan
    robots = (make_robot("r1"), make_robot("r2", reachable=("conveyor",)))
    nearsighted = make_scene(robots=robots)
    report = validate_planner_output(ops, alloc, prec, nearsighted)
    assert any("cannot reach machine" in v for v in report.violations)


def test_operation_in_two_chains_rejected(scene, plan):
    ops, alloc, _ = plan
    prec = PrecedenceSet(chains={"w1": ("t1", "p1", "t2"), "w2": ("t3", "p2", "t4", "t1")})
    report = validate_planner_output(ops, alloc, prec, scene)
    assert any("chains of both" in v for v in report.violations)


def test_operation_missing_from_chains_rejected(scene, plan):
    ops, alloc, _ = plan
    prec = PrecedenceSet(chains={"w1": ("t1", "p1", "t2"), "w2": ("t3", "p2")})
    report = validate_planner_output(ops, alloc, prec, scene)
    assert any("missing from every precedence chain" in v for v in report.violations)


def test_chain_workpiece_mismatch_rejected(scene, plan):
    ops, alloc, _ = plan
    prec = PrecedenceSet(chains={"w1": ("t1", "p1", "t2", "t4"), "w2": ("t3", "p2")})
    report = validate_planner_output(ops, alloc, prec, scene)
    assert any("sits in chain of" in v for v in report.violations)


@pytest.mark.parametrize("reserved", ["__source__", "__terminal__"])
def test_reserved_vertex_id_rejected(scene, plan, reserved):
    report = validate_planner_output(*renamed_plan(*plan, "t1", reserved), scene)
    assert report.violations == (f"operation id '{reserved}' collides with a reserved vertex",)


def test_duplicate_op_id_rejected(scene, plan):
    ops, alloc, prec = plan
    doubled = list(ops) + [ops[0]]
    report = validate_planner_output(doubled, alloc, prec, scene)
    assert any("duplicate operation id" in v for v in report.violations)


def assert_check_decides_like_the_walk(ops, alloc, prec, scene):
    """The set check holds exactly when the rule walk finds nothing, and the
    report is the walk's. Returns the walk's violations."""
    walk = _walk_by_rule(ops, alloc, prec, scene)
    assert _plan_holds(ops, alloc, prec, scene) == (walk == [])
    assert validate_planner_output(ops, alloc, prec, scene).violations == tuple(walk)
    return walk


def _with_op(quad, op):
    ops, alloc, prec, scene = quad
    return tuple(op if o.id == op.id else o for o in ops), alloc, prec, scene


def _with_by_op(quad, by_op):
    ops, _, prec, scene = quad
    return ops, Allocation(by_op), prec, scene


def _with_chains(quad, chains):
    ops, alloc, _, scene = quad
    return ops, alloc, PrecedenceSet(chains), scene


def _without_reach(quad, robot_id, machine_id):
    ops, alloc, prec, scene = quad
    robots = tuple(r._replace(reachable_machines=r.reachable_machines - {machine_id})
                   if r.id == robot_id else r for r in scene.robots)
    return ops, alloc, prec, Scene(robots, scene.machines, scene.workpieces)


# One single-fault edit per message of the walk: (quad, t, p) -> (quad, the
# message), t being the plan's first transport and p its first other
# operation, whose chain is that of its workpiece w.
def _edits():
    def chain_of(quad, p):
        return quad[2].chains[p.workpiece]

    def drop(chain, op_id):
        return tuple(x for x in chain if x != op_id)

    return {
        "duplicate id": lambda q, t, p: (
            (q[0] + (t,), *q[1:]), f"duplicate operation id '{t.id}'"),
        "reserved id": lambda q, t, p: (
            (*renamed_plan(*q[:3], t.id, "__terminal__"), q[3]),
            "operation id '__terminal__' collides with a reserved vertex"),
        "transport without machine_2": lambda q, t, p: (
            _with_op(q, t._replace(machine_2=None)),
            f"transport operation '{t.id}' is missing machine_2"),
        "transport to where it is": lambda q, t, p: (
            _with_op(q, t._replace(machine_2=t.machine_1)),
            f"operation '{t.id}' has identical machine_1 and machine_2"),
        "machine_2 off a transport": lambda q, t, p: (
            _with_op(q, p._replace(machine_2=t.machine_1)),
            f"operation '{p.id}' is not a transport but carries machine_2"),
        "unknown workpiece": lambda q, t, p: (
            _with_op(q, p._replace(workpiece="w?")),
            f"operation '{p.id}' references unknown workpiece 'w?'"),
        "unknown machine": lambda q, t, p: (
            _with_op(q, p._replace(machine_1="m?")),
            f"operation '{p.id}' references unknown machine 'm?'"),
        "allocation beyond the plan": lambda q, t, p: (
            _with_by_op(q, {**q[1].by_op, "o?": q[1].by_op[p.id]}),
            "allocation covers unknown operation 'o?'"),
        "no robot": lambda q, t, p: (
            _with_by_op(q, {k: v for k, v in q[1].by_op.items() if k != p.id}),
            f"operation '{p.id}' has no allocated robot"),
        "unknown robot": lambda q, t, p: (
            _with_by_op(q, {**q[1].by_op, p.id: "r?"}),
            f"operation '{p.id}' is allocated to unknown robot 'r?'"),
        "out of reach": lambda q, t, p: (
            _without_reach(q, q[1].by_op[p.id], p.machine_1),
            f"robot '{q[1].by_op[p.id]}' cannot reach machine '{p.machine_1}' "
            f"required by operation '{p.id}'"),
        "chain of an unknown workpiece": lambda q, t, p: (
            _with_chains(q, {**q[2].chains, "w?": ()}),
            "precedence chain for unknown workpiece 'w?'"),
        "repeated in its chain": lambda q, t, p: (
            _with_chains(q, {**q[2].chains, p.workpiece: chain_of(q, p) + (p.id,)}),
            f"operation '{p.id}' repeats in chain of '{p.workpiece}'"),
        "in two chains": lambda q, t, p: (
            _with_chains(q, {**q[2].chains, "w~": (p.id,)}),
            f"operation '{p.id}' appears in chains of both '{p.workpiece}' and 'w~'"),
        "unknown operation in a chain": lambda q, t, p: (
            _with_chains(q, {**q[2].chains, p.workpiece: chain_of(q, p) + ("o?",)}),
            f"chain of '{p.workpiece}' references unknown operation 'o?'"),
        "in another workpiece's chain": lambda q, t, p: (
            _with_chains(q, {**q[2].chains, p.workpiece: drop(chain_of(q, p), p.id),
                             "w~": (p.id,)}),
            f"operation '{p.id}' works on '{p.workpiece}' but sits in chain of 'w~'"),
        "in no chain": lambda q, t, p: (
            _with_chains(q, {**q[2].chains, p.workpiece: drop(chain_of(q, p), p.id)}),
            f"operation '{p.id}' is missing from every precedence chain"),
    }


EDITS = _edits()


def test_the_edits_reach_every_message_of_the_walk():
    source = inspect.getsource(_walk_by_rule)
    assert len(EDITS) == source.count("problems.append(") == 17


@pytest.mark.parametrize("tier", list(Tier), ids=lambda tier: tier.value)
@pytest.mark.parametrize("edit", EDITS, ids=str)
def test_the_set_check_fails_on_each_single_fault_and_the_walk_names_it(edit, tier):
    task = generate_instance(tier, 3)
    gt = task.ground_truth
    quad = gt.operations, gt.allocation, gt.precedence, task.scene
    assert assert_check_decides_like_the_walk(*quad) == []
    t = next(op for op in gt.operations if op.op_type is OperationType.TRANSPORT)
    p = next(op for op in gt.operations if op.op_type is not OperationType.TRANSPORT)
    edited, message = EDITS[edit](quad, t, p)
    assert not _plan_holds(*edited)
    assert message in assert_check_decides_like_the_walk(*edited)


# Ids and machines a hostile reply may carry, known ones among them.
HOSTILE_IDS = ["__source__", "__terminal__", "", "o0_0", "w0", "m0", "r0", "o?"]
HOSTILE_MACHINES = ["m0", "m1", "m?", "", "w0", None]


@st.composite
def hostile_quads(draw):
    """A structurally valid plan of strategies.plan_triples, then a few
    random edits of its operations, allocation, chains and robots' reach."""
    ops, alloc, prec, scene = draw(plan_triples())
    ops, by_op, chains = list(ops), dict(alloc.by_op), dict(prec.chains)
    robots = list(scene.robots)
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["op", "allocation", "chains", "reach"]))
        if where == "op" and ops:
            i = draw(st.integers(0, len(ops) - 1))
            field = draw(st.sampled_from(["id", "op_type", "workpiece", "machine_1", "machine_2"]))
            value = draw({
                "id": st.sampled_from(HOSTILE_IDS),
                "op_type": st.sampled_from(list(OperationType)),
                "workpiece": st.sampled_from(["w0", "w1", "w?", ""]),
                "machine_1": st.sampled_from([m for m in HOSTILE_MACHINES if m is not None]),
                "machine_2": st.sampled_from(HOSTILE_MACHINES),
            }[field])
            ops[i] = ops[i]._replace(**{field: value})
        elif where == "allocation":
            key = draw(st.sampled_from(HOSTILE_IDS + list(by_op)))
            robot = draw(st.sampled_from(["r0", "r1", "r?", None]))
            if robot is None:
                by_op.pop(key, None)
            else:
                by_op[key] = robot
        elif where == "chains":
            key = draw(st.sampled_from(["w0", "w1", "w?"] + list(chains)))
            chains[key] = tuple(draw(st.lists(
                st.sampled_from(HOSTILE_IDS + [op.id for op in ops]), max_size=4)))
        else:
            k = draw(st.integers(0, len(robots) - 1))
            lost = draw(st.sampled_from(HOSTILE_MACHINES[:2]))
            robots[k] = robots[k]._replace(reachable_machines=robots[k].reachable_machines - {lost})
    scene = Scene(tuple(robots), scene.machines, scene.workpieces)
    return tuple(ops), Allocation(by_op), PrecedenceSet(chains), scene


@settings(max_examples=300, deadline=None)
@given(hostile_quads())
def test_the_set_check_decides_hostile_plans_like_the_walk(quad):
    assert_check_decides_like_the_walk(*quad)


# ---------------------------------------------------------------------------
# JSON: strictness


def _task_doc(scene):
    ops, alloc, prec = simple_plan(scene)
    return {
        "scene": json.loads(SCENE.serialize(scene)),
        "instruction": "polish both plates and stack them on the pallets",
        "ground_truth": {
            "operations": [
                {"id": "t1", "type": "transport", "workpiece": "w1",
                 "machine_1": "conveyor", "machine_2": "table_1"},
                {"id": "p1", "type": "polishing", "workpiece": "w1", "machine_1": "table_1"},
                {"id": "t2", "type": "transport", "workpiece": "w1",
                 "machine_1": "table_1", "machine_2": "pallet_1"},
                {"id": "t3", "type": "transport", "workpiece": "w2",
                 "machine_1": "conveyor", "machine_2": "table_1"},
                {"id": "p2", "type": "polishing", "workpiece": "w2", "machine_1": "table_1"},
                {"id": "t4", "type": "transport", "workpiece": "w2",
                 "machine_1": "table_1", "machine_2": "pallet_2"},
            ],
            "allocation": {op: robot for op, robot in sorted(alloc.by_op.items())},
            "precedence": {w: list(c) for w, c in prec.chains.items()},
        },
    }


def test_parse_task_instance_round_trips(scene):
    text = canonical_json(_task_doc(scene))
    task = parse_task_instance(text)
    assert task.instruction.startswith("polish")
    assert len(task.ground_truth.operations) == 6
    again = serialize_task_instance(task)
    assert parse_task_instance(again) == task
    assert serialize_task_instance(parse_task_instance(again)) == again


def test_unknown_top_level_key_rejected(scene):
    doc = _task_doc(scene)
    doc["comment"] = "free lunch"
    with pytest.raises(ParseError, match="unknown keys: comment"):
        parse_task_instance(canonical_json(doc))


def test_unknown_nested_key_rejected(scene):
    doc = _task_doc(scene)
    doc["scene"]["robots"][0]["speed"] = 3
    with pytest.raises(ParseError, match="speed"):
        parse_task_instance(canonical_json(doc))


def test_missing_required_key_rejected(scene):
    doc = _task_doc(scene)
    del doc["instruction"]
    with pytest.raises(ParseError, match="missing required key 'instruction'"):
        parse_task_instance(canonical_json(doc))


def test_bad_json_is_a_parse_error():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_task_instance("{not json")


def test_a_syntax_error_keeps_the_decoder_message():
    with pytest.raises(ParseError) as info:
        parse_json("{not json", "doc.json")
    assert str(info.value) == (
        "doc.json: invalid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)"
    )


@pytest.mark.parametrize(
    "text,error",
    [("[" * 100_000, RecursionError), ("9" * 5_000, ValueError)],
    ids=["nesting", "long_integer"],
)
def test_input_the_decoder_refuses_is_a_parse_error(text, error):
    # A document nested past the recursion limit, or an integer longer than
    # int() converts, makes json.loads raise something other than
    # JSONDecodeError; both end as ParseError with the decoder's message.
    try:
        json.loads(text)
    except error as exc:
        expected = f"doc.json: invalid JSON: {exc}"
    else:
        pytest.skip("json.loads accepts this input on this interpreter")
    with pytest.raises(ParseError) as info:
        parse_json(text, "doc.json")
    assert str(info.value) == expected


def test_unknown_operation_type_rejected(scene):
    doc = _task_doc(scene)
    doc["ground_truth"]["operations"][1]["type"] = "painting"
    with pytest.raises(ParseError, match="unknown operation type 'painting'"):
        parse_task_instance(canonical_json(doc))


def test_dangling_reference_is_a_validation_error(scene):
    doc = _task_doc(scene)
    doc["ground_truth"]["operations"][1]["workpiece"] = "w9"
    with pytest.raises(ValidationError, match="unknown workpiece 'w9'"):
        parse_task_instance(canonical_json(doc))


def test_wrong_type_rejected(scene):
    doc = _task_doc(scene)
    doc["scene"]["machines"][0]["exclusive"] = "yes"
    with pytest.raises(ParseError, match="expected a boolean"):
        parse_task_instance(canonical_json(doc))


def _hold_unknown_workpiece(doc):
    doc["scene"]["machines"][0]["held_workpieces"].append("w9")


def _name_unknown_machine(doc):
    doc["ground_truth"]["operations"][1]["machine_1"] = "m9"


def _chain_unknown_workpiece(doc):
    doc["ground_truth"]["precedence"]["w9"] = []


def _repeat_in_chain(doc):
    doc["ground_truth"]["precedence"]["w1"].append("t1")


def _robot_as_list(doc):
    doc["scene"]["robots"][0] = ["r1"]


@pytest.mark.parametrize(
    "mutate, error, message",
    [
        (_hold_unknown_workpiece, ValidationError,
         "machine 'conveyor' holds unknown workpiece 'w9'"),
        (_name_unknown_machine, ValidationError,
         "operation 'p1' references unknown machine 'm9'"),
        (_chain_unknown_workpiece, ValidationError,
         "precedence chain for unknown workpiece 'w9'"),
        (_repeat_in_chain, ValidationError, "operation 't1' repeats in chain of 'w1'"),
        (_robot_as_list, ParseError, "expected an object, got list"),
    ],
    ids=["held", "machine", "chain", "repeat", "record"],
)
def test_each_reference_fault_names_itself(scene, mutate, error, message):
    doc = _task_doc(scene)
    mutate(doc)
    with pytest.raises(error) as info:
        parse_task_instance(canonical_json(doc))
    assert message in str(info.value)


def test_gt_schedule_must_cover_exactly_the_ops(scene):
    doc = _task_doc(scene)
    doc["ground_truth"]["schedule"] = {"start_steps": {"t1": 0}, "makespan": 1}
    with pytest.raises(ValidationError, match="exactly the"):
        parse_task_instance(canonical_json(doc))


# ---------------------------------------------------------------------------
# canonical form


def test_scene_serialization_is_order_insensitive(scene):
    shuffled = Scene(
        robots=tuple(reversed(scene.robots)),
        machines=tuple(reversed(scene.machines)),
        workpieces=tuple(reversed(scene.workpieces)),
    )
    assert SCENE.serialize(scene) == SCENE.serialize(shuffled)


def test_operations_keep_list_order(scene):
    # Operation order is the planner's emission order and must survive.
    doc = _task_doc(scene)
    task = parse_task_instance(canonical_json(doc))
    assert [op.id for op in task.ground_truth.operations] == ["t1", "p1", "t2", "t3", "p2", "t4"]


@given(
    st.lists(
        st.tuples(
            st.text(alphabet="abcdefgh", min_size=1, max_size=4),
            st.sampled_from(["plate", "beam", "shell"]),
        ),
        min_size=0,
        max_size=6,
        unique_by=lambda t: t[0],
    )
)
def test_scene_round_trip_property(pieces):
    # Serialization normalizes collection order, so the fixpoint is reached
    # after one parse; from there round-trips are exact and byte-stable.
    workpieces = tuple(make_workpiece(f"w_{name}", kind=kind, states=())
                       for name, kind in pieces)
    machines = (make_machine("m1", held=[w.id for w in workpieces]),)
    scene = Scene(robots=(make_robot("r1", reachable=("m1",)),),
                  machines=machines, workpieces=workpieces)
    text = SCENE.serialize(scene)
    parsed = SCENE.load(json.loads(text), "scene")
    assert SCENE.serialize(parsed) == text
    assert SCENE.load(json.loads(SCENE.serialize(parsed)), "scene") == parsed


# The JSON data model canonical_json takes: str-keyed dicts, lists,
# tuples, str, int, float, bool and None. Text mixes arbitrary code points,
# lone surrogates included, with the characters JSON escapes.
_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\ud800\udfffé€'),
))
_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=-(10 ** 4299), max_value=10 ** 4299),
        st.floats(),
        st.sampled_from([-0.0, 1e-7, 1e16, math.nan, math.inf, -math.inf]),
        _TEXT,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
@example({"a": [], "b": {}, "c": (), "": [{}]})
@example([-0.0, 1e-7, 1e16, math.nan, math.inf, -math.inf, -(10 ** 4299), 10 ** 4299])
@example({"\ud800\"\\\x00é": ["\udfff\n\u2028", True, False, None]})
def test_canonical_json_is_the_stdlib_indent_layout(value):
    assert canonical_json(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("value", [
    {1, 2},
    object(),
    {1: "a"},
    {"a": [{None: 1}]},
    ["ok", {"a": frozenset()}],
])
def test_canonical_json_rejects_values_outside_the_data_model(value):
    with pytest.raises(TypeError):
        canonical_json(value)


# ---------------------------------------------------------------------------
# writing files


def test_write_file_over_a_longer_file_leaves_no_stale_tail(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"stale " * 1000)
    write_file(path, "short\n")
    assert path.read_bytes() == b"short\n"


def test_write_file_over_a_file_of_the_same_length_leaves_the_new_bytes(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"old text\n")
    write_file(path, "new text\n")
    assert path.read_bytes() == b"new text\n"


def test_write_file_over_a_shorter_file_writes_every_byte(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"x")
    write_file(path, "longer\n" * 100)
    assert path.read_bytes() == b"longer\n" * 100


def test_write_file_after_short_writes_writes_every_byte_and_cuts_the_rest(
    tmp_path, monkeypatch
):
    # os.write may write fewer bytes than asked; write_file goes on from
    # where each call stopped, then cuts the longer old file.
    write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(write(fd, bytes(data[:7])))
        return sizes[-1]

    monkeypatch.setattr("shopfloor.model.os.write", short_write)
    path = tmp_path / "out.json"
    path.write_bytes(b"stale " * 1000)
    text = "line \u00e9\n" * 10  # 80 bytes: eleven writes of 7, one of 3
    write_file(path, text)
    monkeypatch.undo()
    assert path.read_bytes() == text.encode("utf-8")
    assert sum(sizes) == len(text.encode("utf-8")) and max(sizes) == 7 and len(sizes) == 12


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_write_file_to_a_pipe_delivers_the_exact_bytes():
    text = "line \u00e9\n" * 1000  # well under a pipe's buffer, so no reader thread
    read_end, write_end = os.pipe()
    try:
        write_file(f"/dev/fd/{write_end}", text)
    finally:
        os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        assert reader.read() == text.encode("utf-8")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_write_file_to_a_pipe_past_its_buffer_delivers_every_byte():
    text = "line \u00e9\n" * 32768  # 256 KiB, more than a pipe buffers
    read_end, write_end = os.pipe()
    received = []
    with os.fdopen(read_end, "rb") as reader:
        thread = threading.Thread(target=lambda: received.append(reader.read()))
        thread.start()
        try:
            write_file(f"/dev/fd/{write_end}", text)
        finally:
            os.close(write_end)
            thread.join(timeout=30)
    assert not thread.is_alive()
    assert received == [text.encode("utf-8")]
