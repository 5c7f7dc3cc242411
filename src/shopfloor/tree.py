"""Process trees: reusable skill procedures organized as a rooted DAG.

Each node carries a type gate (a specific operation type, or general for
"applies to everything") and a snippet of skill-call templates. A node
applies to an operation when it is general or typed like the operation,
and the operation's robot carries every device its snippet names and each
machine role every point named on it: the needs that executor.needs
states, which the executor checks when the program runs. So a branch
applies exactly where its skills can run. A branch is a root-to-leaf path
of applying nodes; assembling a program means selecting the unique branch
for every operation, concatenating its snippets into one execution
function per distinct branch, and binding the operation's concrete robot,
machines and workpiece through a per-operation wrapper.

Nodes with identical procedures are shared between parents, so the
structure is a rooted acyclic graph rather than a strict tree; paths are
still what selection works on.

Each node's needs are read once, when the node is built (so when a tree
file is loaded). Selection never sees the operation or the scene: it
reads a Features record, which features(op, robot_id, scene) builds once
per operation from the operation type, the devices of the robot
allocated to it and the points of the machines its two machine roles
name, read as the executor reads them. The same record keys each tree's
branch table, which maps it to the outcome: the selected branch with its
execution name and skills, or the NoBranch/AmbiguousBranch detail.
Selection looks the record up and walks the tree, comparing each node's
needs with the record, only on a miss; so an entry is the walk's outcome
by construction. The operation and robot ids enter an error message only
when it is raised. The tree file format is declared once, as a codec
(TREE) built from the strict-JSON combinators in model.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .codec import INT, STR, ArrayOf, EnumOf, Record
from .errors import AmbiguousBranch, NoBranch, ValidationError
from .executor import needs
from .model import (
    SKILL_CALL,
    SKILLS,
    Allocation,
    Operation,
    OperationType,
    Program,
    ProgramCall,
    Scene,
    SkillCall,
    Wrapper,
    parse_json,
)
from .value import Value


class TreeNode(Value):
    _fields = ("index", "op_type", "description", "snippet", "children")
    __slots__ = (*_fields, "devices", "points_1", "points_2")

    def __init__(self, index: int, op_type: OperationType | None,  # None means general
                 description: str, snippet: tuple[SkillCall, ...],
                 children: tuple[int, ...]) -> None:
        self.index, self.op_type, self.description = index, op_type, description
        self.snippet, self.children = snippet, children
        self.devices, self.points_1, self.points_2 = needs(snippet)


Branch = tuple[TreeNode, ...]


class _Selection(NamedTuple):
    """A selected branch, with the execution that assembly names after it."""

    branch: Branch
    execution: str  # "exec_" + the branch's node indices
    skills: tuple[SkillCall, ...]  # the branch's snippets, concatenated


class Features(NamedTuple):
    """Everything selection reads about an operation in its scene, built by
    features(), as _run_operation reads it: a robot or machine id that does
    not resolve has no devices or points, and the machine_2 role names
    machine_1 when the operation has no machine_2."""

    op_type: OperationType
    devices: frozenset[str]  # carried by the operation's robot
    points_1: frozenset[str]  # of the machine_1 role
    points_2: frozenset[str]  # of the machine_2 role


def features(op: Operation, robot_id: str | None, scene: Scene) -> Features:
    robot = scene.robot(robot_id)
    m1 = scene.machine(op.machine_1)
    m2 = scene.machine(op.machine_1 if op.machine_2 is None else op.machine_2)
    return Features(
        op.op_type,
        robot.devices if robot else frozenset(),
        m1.points if m1 else frozenset(),
        m2.points if m2 else frozenset(),
    )


# What branch selection yields for one Features record: the selection, or
# the NoBranch/AmbiguousBranch class and its detail without the operation id.
_Outcome = _Selection | tuple[type[NoBranch] | type[AmbiguousBranch], str]


class ProcessTree(Value):
    _fields = ("root", "nodes")
    __slots__ = (*_fields, "branches")

    def __init__(self, root: int, nodes: Mapping[int, TreeNode]) -> None:
        self.root, self.nodes = root, nodes
        # Branch table: Features -> outcome, filled by the walk on a miss. The
        # walk reads only the key and the immutable nodes, so an entry can
        # never go stale.
        self.branches: dict[Features, _Outcome] = {}


# ---------------------------------------------------------------------------
# tree files


def _by_index(nodes: Iterable[TreeNode]) -> dict[int, TreeNode]:
    table: dict[int, TreeNode] = {}
    for node in nodes:
        if node.index in table:
            raise ValidationError(f"node index {node.index} is not unique")
        table[node.index] = node
    return table


TREE_NODE = Record(
    TreeNode,
    keys={"op_type": "type"},
    index=INT,
    op_type=EnumOf(OperationType, "node type", general=None),
    description=STR,
    snippet=ArrayOf(SKILL_CALL),
    children=ArrayOf(INT),
)
TREE = Record(
    ProcessTree,
    root=INT,
    # A JSON array in index order, keyed by index on load.
    nodes=ArrayOf(
        TREE_NODE, build=_by_index, order=lambda nodes: [nodes[i] for i in sorted(nodes)]
    ),
)


def serialize_tree(tree: ProcessTree) -> str:
    return TREE.serialize(tree)


def parse_tree(text: str, path: str = "tree") -> ProcessTree:
    tree = TREE.load(parse_json(text, path), path)
    _validate_tree(tree)
    return tree


@cache
def load_reference_tree() -> ProcessTree:
    """The tree shipped with the package, covering all five operation types
    with bracket-camera and handheld-camera location variants. Parsed once
    per process; callers share it and must not mutate it."""
    text = (Path(__file__).parent / "data" / "process_tree.json").read_text(encoding="utf-8")
    return parse_tree(text, "process_tree.json")


def _validate_tree(tree: ProcessTree) -> None:
    if tree.root not in tree.nodes:
        raise ValidationError(f"root index {tree.root} has no node")
    for node in tree.nodes.values():
        for child in node.children:
            if child not in tree.nodes:
                raise ValidationError(
                    f"node {node.index} references missing child {child}"
                )
        for call in node.snippet:
            if call.skill not in SKILLS:
                raise ValidationError(
                    f"node {node.index} uses unknown skill '{call.skill}'"
                )

    # Reachability and acyclicity in one walk.
    state: dict[int, int] = {}  # 1 = on stack, 2 = done

    def visit(index: int) -> None:
        if state.get(index) == 1:
            raise ValidationError(f"cycle through node {index}")
        if state.get(index) == 2:
            return
        state[index] = 1
        for child in tree.nodes[index].children:
            visit(child)
        state[index] = 2

    visit(tree.root)
    unreachable = sorted(set(tree.nodes) - set(state))
    if unreachable:
        raise ValidationError(
            f"nodes unreachable from root: {', '.join(map(str, unreachable))}"
        )

    # Every operation type needs at least one complete, type-consistent branch.
    def covers(index: int, op_type: OperationType) -> bool:
        node = tree.nodes[index]
        if node.op_type not in (None, op_type):
            return False
        if not node.children:
            return True
        return any(covers(child, op_type) for child in node.children)

    for op_type in OperationType:
        if not covers(tree.root, op_type):
            raise ValidationError(
                f"no complete branch exists for type '{op_type.value}'"
            )


# ---------------------------------------------------------------------------
# branch selection


def _walk(tree: ProcessTree, f: Features) -> _Outcome:
    """Select the branch for f by walking the tree and comparing each
    node's needs with f."""
    matches: list[Branch] = []
    deepest: tuple[int, TreeNode] | None = None

    def walk(index: int, path: Branch) -> None:
        nonlocal deepest
        node = tree.nodes[index]
        if not (node.op_type in (None, f.op_type) and node.devices <= f.devices
                and node.points_1 <= f.points_1 and node.points_2 <= f.points_2):
            return
        path = path + (node,)
        if deepest is None or len(path) > deepest[0]:
            deepest = (len(path), node)
        if not node.children:
            matches.append(path)
            return
        for child in node.children:
            walk(child, path)

    walk(tree.root, ())
    if not matches:
        if deepest is None:
            return NoBranch, "even the root matched nothing"
        return NoBranch, (
            f"no complete branch; deepest match was "
            f"node {deepest[1].index} ({deepest[1].description})"
        )
    if len(matches) > 1:
        listed = "; ".join(
            "->".join(str(n.index) for n in path) for path in matches
        )
        return AmbiguousBranch, f"{len(matches)} branches match: {listed}"
    branch = matches[0]
    return _Selection(
        branch,
        "exec_" + "_".join(str(node.index) for node in branch),
        tuple(call for node in branch for call in node.snippet),
    )


def _select(tree: ProcessTree, op: Operation, robot_id: str | None,
            scene: Scene) -> _Selection:
    key = features(op, robot_id, scene)
    outcome = tree.branches.get(key)
    if outcome is None:
        outcome = tree.branches[key] = _walk(tree, key)
    if isinstance(outcome, _Selection):
        return outcome
    error, detail = outcome
    raise error(f"operation '{op.id}' on robot '{robot_id}': {detail}")


def select_branch(tree: ProcessTree, op: Operation, robot_id: str | None,
                  scene: Scene) -> Branch:
    """The unique root-to-leaf path matching op, run by robot_id, in this scene.

    A node matches when it is general or typed like op, robot_id carries
    every device its snippet names, and op's machine roles every point.
    Zero matches raise NoBranch naming the deepest node that still
    matched; several raise AmbiguousBranch listing the rival paths. The
    outcome is looked up in the tree's branch table, walked on a miss.
    """
    return _select(tree, op, robot_id, scene).branch


# ---------------------------------------------------------------------------
# program assembly


def assemble_program(
    tree: ProcessTree,
    operations: Sequence[Operation],
    allocation: Allocation,
    scene: Scene,
) -> Program:
    """Build the three-layer program for a plan.

    Precondition: the plan passes model.validate_planner_output, so every
    operation has an allocated robot. Operations selecting the same branch
    share one execution function (keyed by the branch's node-index
    sequence); each operation gets its own wrapper binding robot, machines
    and workpiece. Deterministic and idempotent for a fixed input.
    """
    executions: dict[str, tuple[SkillCall, ...]] = {}
    wrappers: dict[str, Wrapper] = {}
    calls: list[ProgramCall] = []
    for op in operations:
        robot = allocation.robot_for(op.id)
        selection = _select(tree, op, robot, scene)
        exec_name = selection.execution
        executions.setdefault(exec_name, selection.skills)
        binding = {"robot": robot, "machine_1": op.machine_1, "workpiece": op.workpiece}
        if op.machine_2 is not None:
            binding["machine_2"] = op.machine_2
        wrapper_name = f"op_{op.id}"
        wrappers[wrapper_name] = Wrapper(execution=exec_name, binding=binding)
        calls.append(ProgramCall(op_id=op.id, wrapper=wrapper_name, args=binding))
    calls.sort(key=lambda c: c.op_id)
    return Program(calls=tuple(calls), wrappers=wrappers, executions=executions)
