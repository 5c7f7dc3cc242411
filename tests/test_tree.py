"""Process tree loading, branch selection, and program assembly."""

from __future__ import annotations

import json
import re
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopfloor.bench import Tier, generate_instance
from shopfloor.errors import AmbiguousBranch, NoBranch, ParseError, ValidationError
from shopfloor.model import (
    OperationType,
    Scene,
    PROGRAM,
    SkillCall,
    canonical_json,
)
from shopfloor.tree import (
    _LEAVES,
    ProcessTree,
    assemble_program,
    eval_condition,
    features,
    load_reference_tree,
    parse_condition,
    parse_tree,
    select_branch,
    serialize_tree,
)

from conftest import FULL_KIT, make_op, make_robot, make_scene, simple_plan

HANDHELD_KIT = FULL_KIT  # camera in hand, no bracket_camera
BRACKET_KIT = frozenset(
    {"bracket_camera", "magnetic_gripper", "polisher", "welding_gun", "beveler"}
)


@pytest.fixture(scope="module")
def tree():
    return load_reference_tree()


def bracket_scene():
    return make_scene(robots=(make_robot("r1", devices=BRACKET_KIT),
                              make_robot("r2", devices=BRACKET_KIT)))


# ---------------------------------------------------------------------------
# condition language


def test_parse_true():
    assert parse_condition("true") is True


@pytest.mark.parametrize(
    "text, expected",
    [
        ('(= workpiece.kind "steel plate")', ["=", "workpiece.kind", "steel plate"]),
        ('(device-present robot "polisher")', ["device-present", "robot", "polisher"]),
        ('(point-present machine_2 "Photo_Point")', ["point-present", "machine_2", "Photo_Point"]),
    ],
)
def test_parse_leaf_forms(text, expected):
    assert parse_condition(text) == expected


def test_parse_nested():
    expr = parse_condition('(and (not (= op.type "transport")) (device-present robot "camera"))')
    assert expr[0] == "and"
    assert expr[1] == ["not", ["=", "op.type", "transport"]]
    assert expr[2] == ["device-present", "robot", "camera"]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "(or true true)",
        '(= op.speed "3")',
        "(device-present machine_1 \"camera\")",
        '(point-present robot "Photo_Point")',
        "(and)",
        "(not true true)",
        "(device-present robot camera)",
        'true extra',
        # one per failure of the leaf rule (head role "value")
        '(= robot "camera")',
        '(device-present machine_2 "camera")',
        '(point-present op.type "Photo_Point")',
        "(= op.type transport)",
        "(point-present machine_1 Photo_Point)",
        '(= op.type "transport"',
        '(and (device-present robot "camera" true)',
        '(point-present machine_1 "Photo_Point" "Other_Point")',
        # messages pinned by test_a_bad_condition_names_its_fault
        '(= op.type "x)',
        "false",
        'true "',
    ],
)
def test_parse_rejects_bad_conditions(text):
    with pytest.raises(ParseError):
        parse_condition(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ('(= op.type "x)', """condition contains stray characters: '(= op.type "x)'"""),
        ("false", "expected 'true' or '(' in condition, got 'false'"),
        # a stray character after the last token
        ('true "', """condition contains stray characters: 'true "'"""),
    ],
)
def test_a_bad_condition_names_its_fault(text, message):
    with pytest.raises(ParseError) as raised:
        parse_condition(text)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "text, token",
    [
        ('(= robot "camera")', "'robot'"),
        ('(device-present machine_1 "camera")', "'machine_1'"),
        ('(point-present robot "Photo_Point")', "'robot'"),
        ("(device-present robot camera)", "'camera'"),
        ('(and (device-present robot "camera" true)', "'true'"),
        ('(= op.type "transport" "welding")', """'"welding"'"""),
    ],
)
def test_leaf_errors_name_the_form_and_the_token(text, token):
    head = text.removeprefix("(and ").split()[0].removeprefix("(")
    with pytest.raises(ParseError, match=re.escape(f"({head} ...)")) as raised:
        parse_condition(text)
    assert token in str(raised.value)


def holds(condition, op, scene, robot_id="r1"):
    return eval_condition(parse_condition(condition), features(op, robot_id, scene))


def test_eval_attribute_equality(scene):
    op = make_op("p1", OperationType.POLISHING, "w1", "table_1")
    assert holds('(= op.type "polishing")', op, scene)
    assert holds('(= machine_1.name "polishing table")', op, scene)
    assert not holds('(= machine_2.name "pallet")', op, scene)
    assert holds('(= workpiece.kind "steel plate")', op, scene)


def test_eval_device_reads_the_allocated_robot_alone(scene):
    # r1 and r2 both reach table_1; only the kit of the operation's own
    # robot decides, and an unknown or missing robot carries nothing.
    op = make_op("p1", OperationType.POLISHING, "w1", "table_1")
    assert holds('(device-present robot "camera")', op, scene)
    mixed = make_scene(robots=(make_robot("r1"), make_robot("r2", devices=frozenset())))
    assert holds('(device-present robot "camera")', op, mixed, "r1")
    assert not holds('(device-present robot "camera")', op, mixed, "r2")
    for unknown in ("ghost", None):
        assert not holds('(device-present robot "camera")', op, mixed, unknown)


def test_eval_point_present(scene):
    op = make_op("t1", OperationType.TRANSPORT, "w1", "table_1", "pallet_1")
    assert holds('(point-present machine_1 "Photo_Point")', op, scene)
    assert not holds('(point-present machine_2 "Photo_Point")', op, scene)


def allocated_robot(scene, robot_id):
    """The first robot entry with robot_id, found by a scan; None if none."""
    return next((r for r in scene.robots if r.id == robot_id), None)


def reference_holds(expr, op, robot_id, scene):
    """What a parsed condition means, read from op, its robot and the scene
    directly: an id that does not resolve has no name, kind, points or
    devices, and a device is present when the allocated robot carries it."""
    if expr is True:
        return True
    head, *rest = expr
    if head == "and":
        return all(reference_holds(e, op, robot_id, scene) for e in rest)
    if head == "not":
        return not reference_holds(rest[0], op, robot_id, scene)
    if head == "device-present":
        robot = allocated_robot(scene, robot_id)
        return robot is not None and rest[1] in robot.devices
    if head == "point-present":
        machine_id = op.machine_1 if rest[0] == "machine_1" else op.machine_2
        machine = scene.machine(machine_id)
        return machine is not None and rest[1] in machine.points
    attr, value = rest
    if attr == "op.type":
        return op.op_type.value == value
    if attr == "workpiece.kind":
        piece = scene.workpiece(op.workpiece)
        return piece is not None and piece.kind == value
    machine_id = op.machine_1 if attr == "machine_1.name" else op.machine_2
    machine = scene.machine(machine_id)
    return machine is not None and machine.name == value


# ---------------------------------------------------------------------------
# tree files


def test_reference_tree_round_trips(tree):
    text = serialize_tree(tree)
    assert serialize_tree(parse_tree(text)) == text


def test_dangling_child_rejected(tree):
    doc = json.loads(serialize_tree(tree))
    doc["nodes"][0]["children"] = [1, 2, 99]
    with pytest.raises(ValidationError, match="missing child 99"):
        parse_tree(canonical_json(doc))


def test_root_without_a_node_rejected(tree):
    doc = json.loads(serialize_tree(tree))
    doc["root"] = 99
    with pytest.raises(ValidationError, match="^root index 99 has no node$"):
        parse_tree(canonical_json(doc))


def test_cycle_rejected(tree):
    doc = json.loads(serialize_tree(tree))
    for node in doc["nodes"]:
        if node["index"] == 3:
            node["children"] = [0]
    with pytest.raises(ValidationError, match="cycle"):
        parse_tree(canonical_json(doc))


def test_unreachable_node_rejected(tree):
    doc = json.loads(serialize_tree(tree))
    doc["nodes"].append({
        "index": 40, "type": "general", "description": "orphan",
        "condition": "true", "snippet": [], "children": [],
    })
    with pytest.raises(ValidationError, match="unreachable"):
        parse_tree(canonical_json(doc))


def test_missing_type_coverage_rejected(tree):
    doc = json.loads(serialize_tree(tree))
    doc["nodes"] = [n for n in doc["nodes"] if n["index"] != 6]
    for node in doc["nodes"]:
        node["children"] = [c for c in node["children"] if c != 6]
    with pytest.raises(ValidationError, match="transport"):
        parse_tree(canonical_json(doc))


def test_unknown_skill_rejected(tree):
    doc = json.loads(serialize_tree(tree))
    doc["nodes"][1]["snippet"] = [{"skill": "levitate", "args": []}]
    with pytest.raises(ValidationError, match="unknown skill 'levitate'"):
        parse_tree(canonical_json(doc))


@pytest.mark.parametrize(
    "condition", ["(or true true)", '(= op.speed "3")', "(and)", "true extra", ""]
)
def test_malformed_condition_in_tree_file_raises_parse_error(tree, condition):
    with pytest.raises(ParseError) as expected:
        parse_condition(condition)
    doc = json.loads(serialize_tree(tree))
    doc["nodes"][2]["condition"] = condition
    with pytest.raises(ParseError) as raised:
        parse_tree(canonical_json(doc))
    assert str(raised.value) == str(expected.value)


def test_duplicate_index_rejected(tree):
    doc = json.loads(serialize_tree(tree))
    doc["nodes"].append(dict(doc["nodes"][3]))
    with pytest.raises(ValidationError, match="not unique"):
        parse_tree(canonical_json(doc))


# ---------------------------------------------------------------------------
# branch selection


def test_handheld_scene_selects_handheld_path(tree, scene):
    op = make_op("p1", OperationType.POLISHING, "w1", "table_1")
    branch = select_branch(tree, op, "r1", scene)
    assert [n.index for n in branch] == [0, 2, 3]


def test_bracket_scene_selects_bracket_path(tree):
    op = make_op("p1", OperationType.POLISHING, "w1", "table_1")
    branch = select_branch(tree, op, "r1", bracket_scene())
    assert [n.index for n in branch] == [0, 1, 3]


def test_transport_shares_photo_prefix_with_polishing(tree, scene):
    polish = select_branch(
        tree, make_op("p1", OperationType.POLISHING, "w1", "table_1"), "r1", scene
    )
    move = select_branch(
        tree, make_op("t1", OperationType.TRANSPORT, "w1", "table_1", "pallet_1"), "r1", scene
    )
    assert [n.index for n in polish[:2]] == [n.index for n in move[:2]] == [0, 2]
    assert polish[-1].index == 3 and move[-1].index == 6


def test_no_camera_variant_raises_no_branch(tree):
    blind = make_scene(robots=(
        make_robot("r1", devices=frozenset({"polisher", "magnetic_gripper"})),
        make_robot("r2", devices=frozenset({"polisher", "magnetic_gripper"})),
    ))
    op = make_op("p1", OperationType.POLISHING, "w1", "table_1")
    with pytest.raises(NoBranch, match="operation entry"):
        select_branch(tree, op, "r1", blind)


def test_missing_tool_names_deepest_matching_node(tree):
    # Cameras are available but nobody can polish: the photo node is the
    # deepest match and must be named in the error.
    no_tool = make_scene(robots=(
        make_robot("r1", devices=frozenset({"camera"})),
        make_robot("r2", devices=frozenset({"camera"})),
    ))
    op = make_op("p1", OperationType.POLISHING, "w1", "table_1")
    with pytest.raises(NoBranch, match="handheld camera"):
        select_branch(tree, op, "r1", no_tool)


def test_both_camera_variants_are_ambiguous(tree):
    greedy = make_scene(robots=(
        make_robot("r1", devices=FULL_KIT | {"bracket_camera"}),
        make_robot("r2", devices=FULL_KIT | {"bracket_camera"}),
    ))
    op = make_op("p1", OperationType.POLISHING, "w1", "table_1")
    with pytest.raises(AmbiguousBranch, match="2 branches"):
        select_branch(tree, op, "r1", greedy)


def reference_branch(tree, op, robot_id, scene):
    """select_branch's walk, re-parsing each condition where it is used."""
    matches = []

    def walk(index, path):
        node = tree.nodes[index]
        if node.op_type not in (None, op.op_type):
            return
        if not reference_holds(parse_condition(node.condition), op, robot_id, scene):
            return
        path = path + (node.index,)
        if not node.children:
            matches.append(path)
        for child in node.children:
            walk(child, path)

    walk(tree.root, ())
    return matches


CAMERAS = frozenset({"camera", "bracket_camera"})


def refit(scene, change, robot_ids):
    """scene with the devices of the named robots changed."""
    robots = tuple(
        make_robot(r.id, devices=change(r.devices), reachable=r.reachable_machines)
        if r.id in robot_ids else r
        for r in scene.robots
    )
    return Scene(robots=robots, machines=scene.machines, workpieces=scene.workpieces)


def _node(index, condition, children=()):
    return {"index": index, "type": "general", "description": condition,
            "condition": condition, "snippet": [], "children": list(children)}


# A tree whose conditions read every part of the feature key, including the
# workpiece kind, the machine names and machine_2's points, which the
# reference tree never reads.
FEATURE_TREE = parse_tree(json.dumps({"root": 0, "nodes": [
    _node(0, "true", (1, 2)),
    _node(1, '(= workpiece.kind "steel plate")', (3, 4, 5, 6)),
    _node(2, '(not (= workpiece.kind "steel plate"))', (3, 4, 5, 6)),
    _node(3, '(and (= machine_1.name "work table") (device-present robot "camera"))'),
    _node(4, '(and (= op.type "transport") (= machine_2.name "pallet"))'),
    _node(5, '(point-present machine_2 "Photo_Point")'),
    _node(6, '(and (point-present machine_1 "Photo_Point") '
             '(not (device-present robot "bracket_camera")))'),
]}))


def mutated_scenes(scene):
    """scene and variants that each change what a condition can read."""
    every = {r.id for r in scene.robots}
    return (
        scene,
        refit(scene, lambda d: d - CAMERAS, {scene.robots[0].id}),
        refit(scene, lambda d: d | CAMERAS, every),
        Scene(robots=scene.robots, machines=scene.machines, workpieces=()),
        Scene(
            robots=tuple(r._replace(reachable_machines=frozenset())
                         for r in scene.robots),
            machines=scene.machines, workpieces=scene.workpieces,
        ),
        Scene(
            robots=scene.robots,
            machines=tuple(m._replace(points=frozenset())
                           for m in scene.machines),
            workpieces=scene.workpieces,
        ),
        Scene(
            robots=scene.robots,
            machines=tuple(m._replace(name=m.name + " (renamed)")
                           for m in scene.machines),
            workpieces=tuple(w._replace(kind="steel plate")
                             if w.kind != "steel plate" else
                             w._replace(kind="cast part")
                             for w in scene.workpieces),
        ),
    )


def mutated_ops(task):
    """(op, robot id) for each ground-truth operation with its allocated
    robot, and variants with an unknown or unset machine or robot."""
    allocation = task.ground_truth.allocation
    for op in task.ground_truth.operations:
        robot_id = allocation.robot_for(op.id)
        yield op, robot_id
        yield op._replace(machine_1="ghost"), robot_id
        yield op._replace(machine_2="ghost"), robot_id
        yield op._replace(machine_2=None), robot_id
        yield op, "ghost"


@pytest.mark.parametrize("tier", list(Tier))
def test_select_branch_matches_a_reparsing_walk(tree, tier):
    # One tree object per source tree serves every scene, so most lookups
    # hit its branch table; a fresh tree over the same nodes has an empty
    # table and gives the walk's outcome and message.
    for source in (tree, FEATURE_TREE):
        shared = ProcessTree(source.root, source.nodes)
        outcomes = set()
        lookups = 0
        for seed in range(4):
            task = generate_instance(tier, seed)
            for scene in mutated_scenes(task.scene):
                for op, robot_id in mutated_ops(task):
                    expected = reference_branch(source, op, robot_id, scene)
                    outcomes.add(min(len(expected), 2))
                    lookups += 1
                    if len(expected) == 1:
                        branch = select_branch(shared, op, robot_id, scene)
                        assert tuple(n.index for n in branch) == expected[0]
                        continue
                    error = AmbiguousBranch if expected else NoBranch
                    with pytest.raises(error) as fresh:
                        select_branch(ProcessTree(source.root, source.nodes), op, robot_id, scene)
                    with pytest.raises(error) as hit:
                        select_branch(shared, op, robot_id, scene)
                    assert str(hit.value) == str(fresh.value)
                    assert str(hit.value).startswith(
                        f"operation '{op.id}' on robot '{robot_id}': "
                    )
        assert outcomes == {0, 1, 2}
        assert len(shared.branches) < lookups / 2  # most lookups hit


def reference_features(op, robot_id, scene):
    """features(op, robot_id, scene) read from the scene's entities
    directly, the devices those of the allocated robot's first entry."""
    m1, m2 = scene.machine(op.machine_1), scene.machine(op.machine_2)
    piece = scene.workpiece(op.workpiece)
    robot = allocated_robot(scene, robot_id)
    return (
        op.op_type,
        piece.kind if piece else None,
        m1.name if m1 else None,
        m2.name if m2 else None,
        robot.devices if robot else frozenset(),
        m1.points if m1 else frozenset(),
        m2.points if m2 else frozenset(),
    )


def test_features_of_the_seed_2_instances_match_a_direct_reading():
    """Every operation of the 210 instances of perfbench's seed 2 (tier
    seeds 140-209), and its variants on the changed scenes."""
    for tier in Tier:
        for seed in range(140, 210):
            task = generate_instance(tier, seed)
            for scene in mutated_scenes(task.scene):
                for op, robot_id in mutated_ops(task):
                    assert features(op, robot_id, scene) == reference_features(
                        op, robot_id, scene
                    )


@cache
def condition_cases():
    """(op, robot id, scene, features) of the mutated scenes and operations
    of generated tasks, and a strategy for conditions over their words."""
    cases = [
        (op, robot_id, scene, features(op, robot_id, scene))
        for tier in Tier
        for seed in range(2)
        for task in [generate_instance(tier, seed)]
        for scene in mutated_scenes(task.scene)
        for op, robot_id in mutated_ops(task)
    ]
    scenes = [scene for _, _, scene, _ in cases]
    names = {m.name for s in scenes for m in s.machines}
    words = {
        "op.type": {t.value for t in OperationType},
        "workpiece.kind": {w.kind for s in scenes for w in s.workpieces},
        "machine_1.name": names,
        "machine_2.name": names,
        "device-present": {d for s in scenes for r in s.robots for d in r.devices},
        "point-present": {p for s in scenes for m in s.machines for p in m.points},
    }
    return cases, conditions({form: sorted(w | {"ghost"}) for form, w in words.items()})


def conditions(words):
    """Parsed conditions over the whole vocabulary, nested and/not included."""
    leaves = st.one_of(
        st.just(True),
        st.sampled_from(sorted(a for a in words if "." in a)).flatmap(
            lambda attr: st.sampled_from(words[attr]).map(lambda v: ["=", attr, v])
        ),
        st.sampled_from(words["device-present"]).map(lambda d: ["device-present", "robot", d]),
        st.tuples(
            st.sampled_from(tuple(_LEAVES["point-present"])),  # the machine roles
            st.sampled_from(words["point-present"]),
        ).map(lambda rp: ["point-present", *rp]),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(lambda items: ["and", *items]),
            inner.map(lambda e: ["not", e]),
        ),
        max_leaves=8,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_conditions_on_features_mean_what_they_say_of_op_and_scene(data):
    cases, exprs = condition_cases()
    expr = data.draw(exprs)
    for op, robot_id, scene, f in cases:
        assert eval_condition(expr, f) == reference_holds(expr, op, robot_id, scene), (
            op, robot_id, scene,
        )


def test_table_hits_raise_with_their_own_operation_id(tree):
    # r1 and r2 carry one kit, so their operations share one table entry.
    shared = ProcessTree(tree.root, tree.nodes)
    blind = FULL_KIT - {"camera"}
    greedy = FULL_KIT | {"bracket_camera"}
    cases = (
        (blind, NoBranch, "no complete branch; deepest match was node 0 (operation entry)"),
        (greedy, AmbiguousBranch, "2 branches match: 0->1->3; 0->2->3"),
    )
    for kit, error, detail in cases:
        scene = make_scene(robots=(make_robot("r1", devices=kit), make_robot("r2", devices=kit)))
        for op_id, robot_id in (("p1", "r1"), ("p2", "r1"), ("p1", "r2"), ("p1", "r1")):
            op = make_op(op_id, OperationType.POLISHING, "w1", "table_1")
            with pytest.raises(error) as raised:
                select_branch(shared, op, robot_id, scene)
            assert str(raised.value) == f"operation '{op_id}' on robot '{robot_id}': {detail}"
    assert len(shared.branches) == 2


def test_trees_do_not_share_table_entries(tree):
    # A variant of the reference tree with another root gate and entry
    # description: equal features, different outcomes.
    doc = json.loads(serialize_tree(tree))
    doc["nodes"][0]["condition"] = '(device-present robot "magnetic_gripper")'
    doc["nodes"][0]["description"] = "gripper entry"
    variant = parse_tree(json.dumps(doc))
    reference = ProcessTree(tree.root, tree.nodes)
    op = make_op("p1", OperationType.POLISHING, "w1", "table_1")
    handheld = make_scene()
    blind = make_scene(robots=(make_robot("r1", devices=FULL_KIT - {"camera"}),))
    bare = make_scene(robots=(make_robot("r1", devices=frozenset({"polisher"})),))
    for _ in range(2):
        for own in (reference, variant):
            branch = select_branch(own, op, "r1", handheld)
            assert [n.index for n in branch] == [0, 2, 3]
            assert all(node is own.nodes[node.index] for node in branch)
        with pytest.raises(NoBranch, match=r"node 0 \(operation entry\)$"):
            select_branch(reference, op, "r1", blind)
        with pytest.raises(NoBranch, match=r"node 0 \(gripper entry\)$"):
            select_branch(variant, op, "r1", blind)
        with pytest.raises(NoBranch, match="node 0"):
            select_branch(reference, op, "r1", bare)
        with pytest.raises(NoBranch, match="even the root matched nothing$"):
            select_branch(variant, op, "r1", bare)
    assert reference.branches is not variant.branches
    assert len(reference.branches) == len(variant.branches) == 3


# ---------------------------------------------------------------------------
# program assembly


def test_assemble_dedupes_branches(tree, scene):
    ops, alloc, prec = simple_plan(scene)
    program = assemble_program(tree, ops, alloc, scene)
    # 4 transports and 2 polishings in a handheld scene: exactly 2 branches.
    assert set(program.executions) == {"exec_0_2_3", "exec_0_2_6"}
    assert len(program.wrappers) == 6 == len(program.calls)
    assert [c.op_id for c in program.calls] == sorted(op.id for op in ops)


def test_assembled_wrappers_bind_all_roles(tree, scene):
    ops, alloc, prec = simple_plan(scene)
    program = assemble_program(tree, ops, alloc, scene)
    w = program.wrappers["op_t1"]
    assert w.execution == "exec_0_2_6"
    assert w.binding == {"robot": "r1", "machine_1": "conveyor",
                         "machine_2": "table_1", "workpiece": "w1"}
    polish = program.wrappers["op_p1"]
    assert polish.execution == "exec_0_2_3"
    assert "machine_2" not in polish.binding


def test_shared_prefix_is_token_exact(tree, scene):
    ops, alloc, prec = simple_plan(scene)
    program = assemble_program(tree, ops, alloc, scene)
    photo_prefix = program.executions["exec_0_2_3"][:4]
    assert program.executions["exec_0_2_6"][:4] == photo_prefix
    assert photo_prefix[0] == SkillCall(
        skill="convert_to_robot",
        args=("{robot}", "{machine_1}", "{point:Photo_Point}"),
    )


def test_assembly_is_deterministic(tree, scene):
    ops, alloc, prec = simple_plan(scene)
    one = assemble_program(tree, ops, alloc, scene)
    two = assemble_program(tree, ops, alloc, scene)
    assert PROGRAM.serialize(one) == PROGRAM.serialize(two)


def test_program_json_round_trip(tree, scene):
    ops, alloc, prec = simple_plan(scene)
    program = assemble_program(tree, ops, alloc, scene)
    text = PROGRAM.serialize(program)
    parsed = PROGRAM.load(json.loads(text), "program")
    assert PROGRAM.serialize(parsed) == text
