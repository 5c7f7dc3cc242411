"""Process trees: reusable skill procedures organized as a rooted DAG.

Each node carries a type gate (a specific operation type, or general for
"applies to everything"), a machine-checkable condition over the operation
and the scene, and a snippet of skill-call templates. A branch is a
root-to-leaf path; assembling a program means selecting the unique branch
for every operation, concatenating its snippets into one execution function
per distinct branch, and binding the operation's concrete robot, machines
and workpiece through a per-operation wrapper.

Nodes with identical procedures are shared between parents, so the
structure is a rooted acyclic graph rather than a strict tree; paths are
still what selection works on.

Each node's condition is parsed once, when the node is built (so when a
tree file is loaded). Conditions never see the operation or the scene:
they read a Features record, which features(op, scene) builds once per
operation from the operation type, the workpiece kind, both machine names,
the devices shared by every robot that reaches machine_1 (which the scene
indexes once, Scene.crew_devices), and both machines' points. The same
record keys each tree's branch table, which maps it to the outcome: the
selected branch with its execution name and skills, or the
NoBranch/AmbiguousBranch detail. Selection looks the
record up and walks the tree, evaluating the parsed conditions on the
record, only on a miss; so an entry is the walk's outcome by construction.
The operation id enters an error message only when it is raised. The
tree file format is declared once, as a codec (TREE) built from the
strict-JSON combinators in model.

Conditions are s-expressions over a closed vocabulary:

    true
    (and <expr> <expr> ...)
    (not <expr>)

and three leaf forms of one shape, (head role "value"). One table
(_LEAVES) lists the roles each head accepts and what the leaf tests, so
the three are parsed by one rule and evaluated by one lookup:

    (= op.type "transport")            attribute equality; the roles are
                                       op.type, workpiece.kind,
                                       machine_1.name, machine_2.name
    (device-present robot "camera")    every robot that can reach the
                                       operation's machine_1 carries it
    (point-present machine_1 "Photo_Point")
                                       the machine (machine_1 or
                                       machine_2) has the point
"""

from __future__ import annotations

import re
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import AmbiguousBranch, NoBranch, ParseError, ValidationError
from .model import (
    INT,
    SKILL_CALL,
    SKILLS,
    STR,
    Allocation,
    ArrayOf,
    EnumOf,
    Operation,
    OperationType,
    Program,
    ProgramCall,
    Record,
    Scene,
    SkillCall,
    Wrapper,
    parse_json,
)
from .value import Value


class TreeNode(Value):
    _fields = ("index", "op_type", "description", "condition", "snippet", "children")
    __slots__ = (*_fields, "expr")

    def __init__(self, index: int, op_type: OperationType | None,  # None means general
                 description: str, condition: str, snippet: tuple[SkillCall, ...],
                 children: tuple[int, ...]) -> None:
        self.index, self.op_type, self.description = index, op_type, description
        self.condition, self.snippet, self.children = condition, snippet, children
        # The parsed condition; a malformed condition raises ParseError here.
        self.expr = parse_condition(condition)


Branch = tuple[TreeNode, ...]


class _Selection(NamedTuple):
    """A selected branch, with the execution that assembly names after it."""

    branch: Branch
    execution: str  # "exec_" + the branch's node indices
    skills: tuple[SkillCall, ...]  # the branch's snippets, concatenated


class Features(NamedTuple):
    """Everything a condition reads about an operation in its scene, built
    by features(). The name or kind of an id that does not resolve is None;
    such a machine has no points, and no devices are shared when no robot
    reaches machine_1. devices comes from the scene (Scene.crew_devices),
    which intersects each machine's crew once, when it is built."""

    op_type: OperationType
    workpiece_kind: str | None
    machine_1_name: str | None
    machine_2_name: str | None
    devices: frozenset[str]  # shared by every robot that reaches machine_1
    machine_1_points: frozenset[str]
    machine_2_points: frozenset[str]


def features(op: Operation, scene: Scene) -> Features:
    m1 = scene.machine(op.machine_1)
    m2 = scene.machine(op.machine_2)
    piece = scene.workpiece(op.workpiece)
    return Features(
        op.op_type,
        piece.kind if piece else None,
        m1.name if m1 else None,
        m2.name if m2 else None,
        scene.crew_devices(op.machine_1),
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
# condition language

_TOKEN_RE = re.compile(r'\(|\)|"[^"]*"|[^\s()"]+')
# The leaf forms, each (head role "value"): the roles each head accepts,
# and what the leaf holds on a Features record given its value.
_LEAVES: dict[str, dict[str, Callable[[Features, str], bool]]] = {
    "=": {
        "op.type": lambda f, v: f.op_type.value == v,
        "workpiece.kind": lambda f, v: f.workpiece_kind == v,
        "machine_1.name": lambda f, v: f.machine_1_name == v,
        "machine_2.name": lambda f, v: f.machine_2_name == v,
    },
    "device-present": {"robot": lambda f, v: v in f.devices},
    "point-present": {
        "machine_1": lambda f, v: v in f.machine_1_points,
        "machine_2": lambda f, v: v in f.machine_2_points,
    },
}


def _tokenize(text: str) -> list[str]:
    tokens = []
    cursor = 0
    for match in _TOKEN_RE.finditer(text):
        if text[cursor:match.start()].strip():
            raise ParseError(f"condition contains stray characters: {text!r}")
        tokens.append(match.group())
        cursor = match.end()
    if text[cursor:].strip():
        raise ParseError(f"condition contains stray characters: {text!r}")
    return tokens


def parse_condition(text: str) -> Any:
    """Parse a condition into a nested-list form; raises ParseError."""
    tokens = _tokenize(text)
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"condition ended early: {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def expr() -> Any:
        tok = take()
        if tok == "true":
            return True
        if tok != "(":
            raise ParseError(f"expected 'true' or '(' in condition, got {tok!r}")
        head = take()
        if head == "and":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(expr())
            take()  # the ')', or a ParseError when the input ran out
            if not items:
                raise ParseError("(and) needs at least one sub-expression")
            return ["and", *items]
        if head == "not":
            inner = expr()
            if take() != ")":
                raise ParseError("(not ...) takes exactly one sub-expression")
            return ["not", inner]
        if head in _LEAVES:
            role = take()
            if role not in _LEAVES[head]:
                roles = ", ".join(_LEAVES[head])
                raise ParseError(f"({head} ...) takes one of {roles} as its role, got {role!r}")
            value = take()
            if not (value.startswith('"') and value.endswith('"')):
                raise ParseError(f"({head} ...) needs a quoted value, got {value!r}")
            end = take()
            if end != ")":
                raise ParseError(f"({head} ...) takes a role and one value, got {end!r}")
            return [head, role, value[1:-1]]
        raise ParseError(f"unknown condition form {head!r}")

    result = expr()
    if pos != len(tokens):
        raise ParseError(f"trailing tokens in condition: {text!r}")
    return result


def eval_condition(expr: Any, f: Features) -> bool:
    if expr is True:
        return True
    head = expr[0]
    if head == "and":
        return all(eval_condition(e, f) for e in expr[1:])
    if head == "not":
        return not eval_condition(expr[1], f)
    if head in _LEAVES:
        return _LEAVES[head][expr[1]](f, expr[2])
    raise ParseError(f"unknown condition form {head!r}")


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
    condition=STR,
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
    """Select the branch for f by walking the tree and evaluating conditions."""
    matches: list[Branch] = []
    deepest: tuple[int, TreeNode] | None = None

    def walk(index: int, path: Branch) -> None:
        nonlocal deepest
        node = tree.nodes[index]
        if node.op_type not in (None, f.op_type) or not eval_condition(node.expr, f):
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


def _select(tree: ProcessTree, op: Operation, scene: Scene) -> _Selection:
    key = features(op, scene)
    outcome = tree.branches.get(key)
    if outcome is None:
        outcome = tree.branches[key] = _walk(tree, key)
    if isinstance(outcome, _Selection):
        return outcome
    error, detail = outcome
    raise error(f"operation '{op.id}': {detail}")


def select_branch(tree: ProcessTree, op: Operation, scene: Scene) -> Branch:
    """The unique root-to-leaf path matching op in this scene.

    A node matches when it is general or typed like op, and its condition
    holds. Zero matches raise NoBranch naming the deepest node that still
    matched; several raise AmbiguousBranch listing the rival paths. The
    outcome is looked up in the tree's branch table, walked on a miss.
    """
    return _select(tree, op, scene).branch


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
        selection = _select(tree, op, scene)
        exec_name = selection.execution
        executions.setdefault(exec_name, selection.skills)
        robot = allocation.robot_for(op.id)
        binding = {"robot": robot, "machine_1": op.machine_1, "workpiece": op.workpiece}
        if op.machine_2 is not None:
            binding["machine_2"] = op.machine_2
        wrapper_name = f"op_{op.id}"
        wrappers[wrapper_name] = Wrapper(execution=exec_name, binding=binding)
        calls.append(ProgramCall(op_id=op.id, wrapper=wrapper_name, args=binding))
    calls.sort(key=lambda c: c.op_id)
    return Program(calls=tuple(calls), wrappers=wrappers, executions=executions)
