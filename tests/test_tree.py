"""Process tree loading, branch selection, and program assembly."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import shopfloor.tree as tree_module
from shopfloor import executor
from shopfloor.bench import Tier, generate_instance
from shopfloor.errors import AmbiguousBranch, NoBranch, ValidationError
from shopfloor.executor import execute
from shopfloor.graph import build_graph
from shopfloor.model import (
    OperationType,
    Scene,
    PROGRAM,
    SkillCall,
    canonical_json,
)
from shopfloor.solve import schedule_from_record
from shopfloor.tree import (
    Features,
    ProcessTree,
    assemble_program,
    features,
    load_reference_tree,
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
# what a node needs, and what selection reads


def test_a_node_needs_what_its_snippet_names(tree):
    # Each node needs the devices and points its snippet names, the sets
    # the executor checks; nodes 6 and 7 name the gripper they branch on.
    needs = {index: (node.devices, node.points_1, node.points_2)
             for index, node in tree.nodes.items()}
    none = frozenset()
    assert needs == {
        0: (none, none, none),
        1: ({"bracket_camera"}, none, none),
        2: ({"camera"}, {"Photo_Point"}, none),
        3: ({"polisher"}, none, none),
        4: ({"welding_gun"}, none, none),
        5: ({"beveler"}, none, none),
        6: ({"magnetic_gripper"}, none, none),
        7: ({"magnetic_gripper"}, none, none),
    }


def test_eval_device_reads_the_allocated_robot_alone(scene):
    # r1 and r2 both reach table_1; only the kit of the operation's own
    # robot decides, and an unknown or missing robot carries nothing.
    op = make_op("p1", OperationType.POLISHING, "w1", "table_1")
    assert "camera" in features(op, "r1", scene).devices
    mixed = make_scene(robots=(make_robot("r1"), make_robot("r2", devices=frozenset())))
    assert features(op, "r1", mixed).devices == FULL_KIT
    assert features(op, "r2", mixed).devices == frozenset()
    for unknown in ("ghost", None):
        assert features(op, unknown, mixed).devices == frozenset()


def test_eval_point_present(scene):
    # machine_2 names the pallet, which has no points; without a machine_2
    # the role names machine_1, as in the executor.
    move = make_op("t1", OperationType.TRANSPORT, "w1", "table_1", "pallet_1")
    assert features(move, "r1", scene) == Features(
        OperationType.TRANSPORT, FULL_KIT, frozenset({"Photo_Point"}), frozenset()
    )
    polish = make_op("p1", OperationType.POLISHING, "w1", "table_1")
    assert features(polish, "r1", scene).points_2 == frozenset({"Photo_Point"})
    ghost = features(move._replace(machine_1="ghost", machine_2="ghost"), "r1", scene)
    assert ghost.points_1 == ghost.points_2 == frozenset()


def allocated_robot(scene, robot_id):
    """The first robot entry with robot_id, found by a scan; None if none."""
    return next((r for r in scene.robots if r.id == robot_id), None)


def scanned_machine(scene, machine_id):
    """The first machine entry with machine_id, found by a scan; None if none."""
    return next((m for m in scene.machines if m.id == machine_id), None)


def reference_applies(node, op, robot_id, scene):
    """Whether node applies to op run by robot_id: it is general or typed
    like op, and its snippet, re-parsed here, resolves on the executor's
    argument walk with every role bound and no device or point missing. The
    machine_2 role names machine_1 when op has none, as an assembled
    wrapper binds it."""
    if node.op_type not in (None, op.op_type):
        return False
    robot = allocated_robot(scene, robot_id)
    m1 = scanned_machine(scene, op.machine_1)
    m2 = scanned_machine(scene, op.machine_1 if op.machine_2 is None else op.machine_2)
    binding = dict.fromkeys(("robot", "machine_1", "machine_2", "workpiece"), "bound")
    _, failure = executor._walk_by_argument(
        executor._Link(node.snippet),
        binding,
        robot.devices if robot else frozenset(),
        m1.points if m1 else frozenset(),
        m2.points if m2 else frozenset(),
    )
    return failure is None or failure[1] not in ("missing_device", "missing_point")


# ---------------------------------------------------------------------------
# tree files


def test_reference_tree_round_trips(tree):
    text = serialize_tree(tree)
    assert serialize_tree(parse_tree(text)) == text


def test_the_shipped_tree_file_is_canonical(tree):
    path = Path(tree_module.__file__).parent / "data" / "process_tree.json"
    assert path.read_bytes() == serialize_tree(tree).encode("utf-8")


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
        "snippet": [], "children": [],
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
    """select_branch's walk, re-parsing each snippet where it is used."""
    matches = []

    def walk(index, path):
        node = tree.nodes[index]
        if not reference_applies(node, op, robot_id, scene):
            return
        path = path + (node.index,)
        if not node.children:
            matches.append(path)
        for child in node.children:
            walk(child, path)

    walk(tree.root, ())
    return matches


CAMERAS = frozenset({"camera", "bracket_camera"})
TOOLS = ("polisher", "welding_gun", "beveler", "magnetic_gripper")


def refit(scene, change, robot_ids):
    """scene with the devices of the named robots changed."""
    robots = tuple(
        make_robot(r.id, devices=change(r.devices), reachable=r.reachable_machines)
        if r.id in robot_ids else r
        for r in scene.robots
    )
    return Scene(robots=robots, machines=scene.machines, workpieces=scene.workpieces)


def refitted_scenes(scene):
    """scene and its refits: cameras removed from the first robot, both
    cameras added to every robot, every machine's points cleared, and each
    tool removed from every robot."""
    every = {r.id for r in scene.robots}
    return (
        scene,
        refit(scene, lambda d: d - CAMERAS, {scene.robots[0].id}),
        refit(scene, lambda d: d | CAMERAS, every),
        Scene(
            robots=scene.robots,
            machines=tuple(m._replace(points=frozenset()) for m in scene.machines),
            workpieces=scene.workpieces,
        ),
        *(refit(scene, lambda d, tool=tool: d - {tool}, every) for tool in TOOLS),
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


def _node(index, op_type="general", snippet=(), children=()):
    return {"index": index, "type": op_type, "description": f"node {index}",
            "snippet": [{"skill": skill, "args": list(args)} for skill, *args in snippet],
            "children": list(children)}


# A tree whose nodes need points of the machine_2 role, which no node of the
# reference tree names: node 1 names Photo_Point in a call with {machine_2}.
MACHINE_2_TREE = parse_tree(json.dumps({"root": 0, "nodes": [
    _node(0, children=(1, 2)),
    _node(1, snippet=[("motion_plan", "{robot}", "{machine_2}", "{point:Photo_Point}")],
          children=(3, 4)),
    _node(2, snippet=[("control_device", "{robot}", "{device:bracket_camera}", "on")],
          children=(3, 4)),
    _node(3, "transport", snippet=[("detach", "{robot}", "{workpiece}", "{machine_2}")]),
    _node(4, snippet=[("convert_to_robot", "{robot}", "{machine_1}", "{point:Photo_Point}"),
                      ("control_device", "{robot}", "{device:camera}", "on")]),
]}))


@pytest.mark.parametrize("tier", list(Tier))
def test_select_branch_matches_a_reparsing_walk(tree, tier):
    # One tree object per source tree serves every scene, so most lookups
    # hit its branch table; a fresh tree over the same nodes has an empty
    # table and gives the walk's outcome and message.
    for source in (tree, MACHINE_2_TREE):
        shared = ProcessTree(source.root, source.nodes)
        outcomes = set()
        lookups = 0
        for seed in range(4):
            task = generate_instance(tier, seed)
            for scene in refitted_scenes(task.scene):
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


@pytest.mark.parametrize("tier", list(Tier))
def test_an_assembled_program_runs_where_its_branches_apply(tree, tier):
    # On every refit, the ground truth's program assembled for that scene
    # either stops at a branch error or runs with no device or point
    # missing; and the program assembled for the original scene completes
    # only operations that the refit still has a branch for (select_branch
    # raises no NoBranch).
    shortfalls = {"missing_device", "missing_point"}
    seen = {"stopped": 0, "ran": 0, "completed": 0, "fell short": 0}
    for seed in range(4):
        task = generate_instance(tier, seed)
        gt = task.ground_truth
        stored = assemble_program(tree, gt.operations, gt.allocation, task.scene)
        for scene in refitted_scenes(task.scene):
            graph = build_graph(gt.operations, gt.precedence, gt.allocation, scene)
            schedule = schedule_from_record(graph, gt.schedule)
            try:
                program = assemble_program(tree, gt.operations, gt.allocation, scene)
            except (NoBranch, AmbiguousBranch):
                seen["stopped"] += 1
            else:
                seen["ran"] += 1
                trace = execute(schedule, program, scene, gt.operations).trace
                assert not [f for record in trace for f in record.failures
                            if f.reason in shortfalls]
            trace = execute(schedule, stored, scene, gt.operations).trace
            failures = {f.op_id: f.reason for record in trace for f in record.failures}
            seen["fell short"] += sum(reason in shortfalls for reason in failures.values())
            for record in trace:
                for run in record.operations:
                    if run.op_id not in failures:
                        seen["completed"] += 1
                        op = next(op for op in gt.operations if op.id == run.op_id)
                        try:
                            select_branch(tree, op, run.robot, scene)
                        except AmbiguousBranch:
                            pass
    assert min(seen.values()) > 0, seen


def reference_features(op, robot_id, scene):
    """features(op, robot_id, scene) read from the scene's entities by a
    scan, the devices those of the allocated robot's first entry."""
    robot = allocated_robot(scene, robot_id)
    m1 = scanned_machine(scene, op.machine_1)
    m2 = scanned_machine(scene, op.machine_2 or op.machine_1)
    return (
        op.op_type,
        robot.devices if robot else frozenset(),
        m1.points if m1 else frozenset(),
        m2.points if m2 else frozenset(),
    )


def test_features_of_the_seed_2_instances_match_a_direct_reading():
    """Every operation of the 210 instances of perfbench's seed 2 (tier
    seeds 140-209), and its variants on the refitted scenes."""
    for tier in Tier:
        for seed in range(140, 210):
            task = generate_instance(tier, seed)
            for scene in refitted_scenes(task.scene):
                for op, robot_id in mutated_ops(task):
                    assert features(op, robot_id, scene) == reference_features(
                        op, robot_id, scene
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
    # A variant of the reference tree whose root needs the gripper and has
    # another description: equal features, different outcomes.
    doc = json.loads(serialize_tree(tree))
    doc["nodes"][0]["snippet"] = [
        {"skill": "control_device", "args": ["{robot}", "{device:magnetic_gripper}", "on"]}
    ]
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
