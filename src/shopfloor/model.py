"""Core domain model: scenes, operations, allocations, programs, task files.

All types here are plain immutable data. Invariants are enforced by the
validation entry points (task_violations, which parse_task_instance and
load_task_instance raise on, validate_scene, validate_planner_output), not
by the constructors, so tests and tools can build deliberately broken
values and feed them to the validators. The skill-argument grammar
(role placeholders, "{device:NAME}", "{point:NAME}") is not here but in
its only reader, executor.classify_args.

The package's records are typing.NamedTuple classes, which generate no
methods per class at import; a copy with changed fields is
record._replace(...). A named tuple equals any tuple of the same items, so
records are compared only with records of their own type. Four classes
build state when constructed, which a tuple cannot hold, so they are
slotted value.Value classes: Scene (its id indexes), tree.TreeNode (the
needs of its snippet), tree.ProcessTree (its branch table) and
graph.DisjunctiveGraph (its chain predecessors and held resources).

Each file format (task, scene, plan, program, schedule record) is declared
here once, as a codec built from the strict-JSON combinators of codec;
canonical_json renders plain documents (metrics, summaries) in the same
layout.
"""

from __future__ import annotations

import json
import os
import re
import stat
from enum import Enum
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

from .codec import BOOL, INT, STR, ArrayOf, EnumOf, MapOf, Record, Wrap, _render
from .errors import ParseError, ValidationError
from .value import Value


class OperationType(Enum):
    TRANSPORT = "transport"
    POLISHING = "polishing"
    WELDING = "welding"
    BEVELING = "beveling"
    ASSEMBLY = "assembly"

    # Members compare by identity; Enum.__hash__ is a Python-level call.
    __hash__ = object.__hash__


# Flag added to a workpiece when an operation of the given type completes.
# Transport changes location instead of adding a flag.
PROCESSING_FLAGS: Mapping[OperationType, str] = {
    OperationType.POLISHING: "polished",
    OperationType.WELDING: "welded",
    OperationType.BEVELING: "beveled",
    OperationType.ASSEMBLY: "assembled",
}

PROCESSING_FLAG_LABELS = frozenset(PROCESSING_FLAGS.values())

# Closed skill vocabulary. Programs may only call these.
SKILLS = frozenset(
    {
        "convert_to_robot",
        "motion_plan",
        "move_by_path",
        "control_device",
        "detect_boundary",
        "compute_trajectory",
        "attach",
        "detach",
        "return_home",
    }
)

_AT_RE = re.compile(r"^at\(([^()]+)\)$")

# Vertex ids of the disjunctive graph's source and terminal (graph.to_dot),
# which no operation may take.
SOURCE, TERMINAL = "__source__", "__terminal__"


def at_label(machine_id: str) -> str:
    """Location fact label for a workpiece sitting at the given machine."""
    return f"at({machine_id})"


def parse_at_label(label: str) -> str | None:
    """Inverse of at_label; None when the label is not a location fact."""
    m = _AT_RE.match(label)
    return m.group(1) if m else None


# ---------------------------------------------------------------------------
# Scene


class Robot(NamedTuple):
    id: str
    devices: frozenset[str]
    reachable_machines: frozenset[str]


class Machine(NamedTuple):
    """A workstation. exclusive machines admit one operation per step.

    points are named reference positions (opaque labels) that skill calls
    may require; held_workpieces is the initial placement, in order.
    """

    id: str
    name: str
    exclusive: bool = True
    points: frozenset[str] = frozenset()
    held_workpieces: tuple[str, ...] = ()


class Workpiece(NamedTuple):
    id: str
    kind: str
    state_sequence: tuple[str, ...] = ()


class Scene(Value):
    """The floor. Lookups by id go through indexes built at construction
    and give None for an unknown id; with duplicate ids (which
    validate_scene reports) the first entry wins."""

    _fields = ("robots", "machines", "workpieces")
    __slots__ = (*_fields, "_robots", "_machines", "_workpieces")

    def __init__(self, robots: tuple[Robot, ...], machines: tuple[Machine, ...],
                 workpieces: tuple[Workpiece, ...]) -> None:
        self.robots, self.machines, self.workpieces = robots, machines, workpieces
        # read in reverse, so that the first entry of an id is the last set
        self._robots = {robot.id: robot for robot in reversed(robots)}
        self._machines = {machine.id: machine for machine in reversed(machines)}
        self._workpieces = {piece.id: piece for piece in reversed(workpieces)}

    def robot(self, robot_id: str) -> Robot | None:
        return self._robots.get(robot_id)

    def machine(self, machine_id: str) -> Machine | None:
        return self._machines.get(machine_id)

    def workpiece(self, workpiece_id: str) -> Workpiece | None:
        return self._workpieces.get(workpiece_id)


# ---------------------------------------------------------------------------
# Plan triple


class Operation(NamedTuple):
    """One scheduling unit. machine_2 is meaningful only for transport."""

    id: str
    op_type: OperationType
    workpiece: str
    machine_1: str
    machine_2: str | None = None

    def machines_used(self) -> tuple[str, ...]:
        if self.machine_2 is None:
            return (self.machine_1,)
        return (self.machine_1, self.machine_2)


class Allocation(NamedTuple):
    """Total mapping from operation id to the robot that performs it."""

    by_op: Mapping[str, str]

    def robot_for(self, op_id: str) -> str | None:
        return self.by_op.get(op_id)


class PrecedenceSet(NamedTuple):
    """Per-workpiece operation chains; each chain is a total order."""

    chains: Mapping[str, tuple[str, ...]]


# ---------------------------------------------------------------------------
# Program


class SkillCall(NamedTuple):
    skill: str
    args: tuple[str, ...]


class ProgramCall(NamedTuple):
    """Entry point for one operation: invokes a wrapper with bound arguments."""

    op_id: str
    wrapper: str
    args: Mapping[str, str]


class Wrapper(NamedTuple):
    """Binds one operation's concrete robot/machines/workpiece into a shared
    execution function's placeholders."""

    execution: str
    binding: Mapping[str, str]


class Program(NamedTuple):
    calls: tuple[ProgramCall, ...]
    wrappers: Mapping[str, Wrapper]
    executions: Mapping[str, tuple[SkillCall, ...]]


# ---------------------------------------------------------------------------
# Schedule record (file form; the solver's richer ScheduleGraph lives in solve)


class ScheduleRecord(NamedTuple):
    """Start step per operation plus makespan, as stored in files.

    source, when present, names how the schedule was produced: "optimal"
    for the exact solver, which every generated ground truth stores, and
    "fifo" for the dispatcher (`shopfloor solve` without --optimal and
    perfbench's `large` floors).
    """

    start_steps: Mapping[str, int]
    makespan: int
    source: str | None = None


# ---------------------------------------------------------------------------
# Task instance


class GroundTruth(NamedTuple):
    operations: tuple[Operation, ...]
    allocation: Allocation
    precedence: PrecedenceSet
    program: Program | None = None
    schedule: ScheduleRecord | None = None


class TaskInstance(NamedTuple):
    scene: Scene
    instruction: str
    ground_truth: GroundTruth | None = None


class ValidationReport(NamedTuple):
    """Outcome of a validation pass: ok iff violations is empty."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# JSON text


def parse_json(text: str, path: str) -> Any:
    """The JSON value of text. A syntax error, a document nested deeper than
    the decoder recurses and an integer too long to convert all raise
    ParseError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def canonical_json(data: Any) -> str:
    """Render a plain JSON document in the package's canonical layout.

    A non-empty dict is "{", then each `key: value` on its own line two
    spaces deeper than the enclosing one, separated by ",", then "}" on a
    line at the enclosing depth; lists and tuples are laid out the same way
    between brackets, and empty ones are "{}" and "[]". Strings and keys are
    escaped by json.encoder.encode_basestring, ints and floats written by
    their repr (NaN and infinities as NaN, Infinity, -Infinity), and True,
    False and None as true, false and null. A trailing newline ends the
    document. On documents of str-keyed dicts, lists, tuples, str, int,
    float, bool and None this equals json.dumps(data, indent=2,
    ensure_ascii=False) + "\\n", which on CPython 3.10 and 3.11 runs its
    pure-Python encoder whenever an indent is set.

    Values are dispatched on their exact type: any other value, a subclass
    of those types included, raises TypeError, and so does a dict key that
    is not a str (json.dumps would coerce an int, float, bool or None key).
    """
    return _render(data, "\n") + "\n"


# ---------------------------------------------------------------------------
# File formats

STRS = ArrayOf(STR)
STR_SET = ArrayOf(STR, build=frozenset, order=sorted)
STR_MAP = MapOf(STR)
_sorted_by_id = partial(sorted, key=attrgetter("id"))

ROBOT = Record(Robot, id=STR, devices=STR_SET, reachable_machines=STR_SET)
MACHINE = Record(Machine, id=STR, name=STR, exclusive=BOOL, points=STR_SET, held_workpieces=STRS)
WORKPIECE = Record(Workpiece, id=STR, kind=STR, state_sequence=STRS)
SCENE = Record(
    Scene,
    robots=ArrayOf(ROBOT, order=_sorted_by_id),
    machines=ArrayOf(MACHINE, order=_sorted_by_id),
    workpieces=ArrayOf(WORKPIECE, order=_sorted_by_id),
)

OPERATION = Record(
    Operation,
    keys={"op_type": "type"},
    id=STR,
    op_type=EnumOf(OperationType, "operation type"),
    workpiece=STR,
    machine_1=STR,
    machine_2=STR,
)
ALLOCATION = Wrap(Allocation, STR_MAP)
PRECEDENCE = Wrap(PrecedenceSet, MapOf(STRS))

SKILL_CALL = Record(SkillCall, skill=STR, args=STRS)
PROGRAM_CALL = Record(ProgramCall, op_id=STR, wrapper=STR, args=STR_MAP)
WRAPPER = Record(Wrapper, execution=STR, binding=STR_MAP)
PROGRAM = Record(
    Program,
    calls=ArrayOf(PROGRAM_CALL),
    wrappers=MapOf(WRAPPER),
    executions=MapOf(ArrayOf(SKILL_CALL)),
)

SCHEDULE_RECORD = Record(ScheduleRecord, start_steps=MapOf(INT), makespan=INT, source=STR)

GROUND_TRUTH = Record(
    GroundTruth,
    operations=ArrayOf(OPERATION),
    allocation=ALLOCATION,
    precedence=PRECEDENCE,
    program=PROGRAM,
    schedule=SCHEDULE_RECORD,
)
TASK = Record(TaskInstance, scene=SCENE, instruction=STR, ground_truth=GROUND_TRUTH)


def serialize_task_instance(task: TaskInstance) -> str:
    return TASK.serialize(task)


def task_violations(task: TaskInstance) -> list[str]:
    """Invariant violations of a parsed task (empty when valid): its scene,
    its ground-truth plan, and a stored schedule that does not cover exactly
    the ground-truth operations."""
    violations = validate_scene(task.scene)
    gt = task.ground_truth
    if gt is not None:
        report = validate_planner_output(gt.operations, gt.allocation, gt.precedence, task.scene)
        violations.extend(report.violations)
        op_ids = {op.id for op in gt.operations}
        if gt.schedule is not None and set(gt.schedule.start_steps) != op_ids:
            violations.append(
                "ground-truth schedule must assign a start step to exactly the "
                "ground-truth operations"
            )
    return violations


def parse_task_instance(text: str, path: str = "task") -> TaskInstance:
    """Parse and fully validate a task document. Raises ParseError on shape
    problems and ValidationError on invariant violations."""
    task = TASK.load(parse_json(text, path), path)
    if violations := task_violations(task):
        raise ValidationError("; ".join(violations))
    return task


def load_task_instance(path: str | Path) -> TaskInstance:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{p}: cannot read task file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p}: task file is not UTF-8: {exc}") from None
    return parse_task_instance(text, str(p))


def write_file(path: str | Path, text: str) -> None:
    """Write text as UTF-8 to path, overwriting an existing file in place.

    The file is opened without O_TRUNC, written through its descriptor and,
    only when the old file was longer, cut to the new length: on ext4
    mounted with discard, rewriting an 800-byte file took a median
    90-130 us when truncated on open and 18 us in place. A reader may see a
    half-written file; the write is not atomic. Targets that are not
    regular files (/dev/null, a pipe) are never cut, which they do not
    support.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, memoryview(data)[written:])
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Validation


def validate_scene(scene: Scene) -> list[str]:
    """Return invariant violations for the scene itself (empty when valid)."""
    problems: list[str] = []
    for kind, ids in (
        ("robot", [r.id for r in scene.robots]),
        ("machine", [m.id for m in scene.machines]),
        ("workpiece", [w.id for w in scene.workpieces]),
    ):
        seen: set[str] = set()
        for item_id in ids:
            if item_id in seen:
                problems.append(f"duplicate {kind} id '{item_id}'")
            seen.add(item_id)
    machine_ids = {m.id for m in scene.machines}
    workpiece_ids = {w.id for w in scene.workpieces}
    for r in scene.robots:
        for m in sorted(r.reachable_machines):
            if m not in machine_ids:
                problems.append(f"robot '{r.id}' reaches unknown machine '{m}'")
    holders: dict[str, str] = {}
    for m in scene.machines:
        for w in m.held_workpieces:
            if w not in workpiece_ids:
                problems.append(f"machine '{m.id}' holds unknown workpiece '{w}'")
            elif w in holders:
                problems.append(
                    f"workpiece '{w}' is held by both '{holders[w]}' and '{m.id}'"
                )
            else:
                holders[w] = m.id
    for w in scene.workpieces:
        if w.id not in holders:
            problems.append(f"workpiece '{w.id}' is not held by any machine")
        for label in w.state_sequence:
            target = parse_at_label(label)
            if target is not None:
                if target not in machine_ids:
                    problems.append(
                        f"workpiece '{w.id}' targets unknown machine in state '{label}'"
                    )
            elif label not in PROCESSING_FLAG_LABELS:
                problems.append(
                    f"workpiece '{w.id}' has unknown state label '{label}'"
                )
    return problems


def validate_planner_output(
    operations: Sequence[Operation],
    allocation: Allocation,
    precedence: PrecedenceSet,
    scene: Scene,
) -> ValidationReport:
    """Check a plan triple against the scene. Never raises; returns a report.

    This is the one statement of plan validity: a passing report is the
    precondition of graph.build_graph and tree.assemble_program. It
    guarantees that ids are unique and none is the graph's source or
    terminal vertex ("__source__", "__terminal__"), references resolve,
    machine_2 appears exactly on transport operations, the allocation is
    total over reachable robots, and each operation sits in exactly one
    workpiece chain.

    _plan_holds decides a valid plan first, with membership and set tests
    that state the rules at once. Only a plan it rejects is walked rule by
    rule (_walk_by_rule), the statement of which rules fail, in order.
    """
    if _plan_holds(operations, allocation, precedence, scene):
        return _VALID
    return ValidationReport(tuple(_walk_by_rule(operations, allocation, precedence, scene)))


_VALID = ValidationReport()


def _plan_holds(
    operations: Sequence[Operation],
    allocation: Allocation,
    precedence: PrecedenceSet,
    scene: Scene,
) -> bool:
    """Whether _walk_by_rule finds nothing, decided by membership and set
    tests: the operation ids are unique and none is reserved; the
    allocation's keys are those ids; each operation's robot is known and
    reaches each of its machines, all known; machine_2 is set exactly on
    transports and differs from machine_1; each operation sits once in all
    the chains, in the chain of its own workpiece; and every chain's
    workpiece is known."""
    by_op, chains = allocation.by_op, precedence.chains
    robots, machines = scene._robots, scene._machines
    ids: set[str] = set()
    for op in operations:
        robot = robots.get(by_op.get(op.id))
        if robot is None or op.id in ids:
            return False
        ids.add(op.id)
        reach, m1, m2 = robot.reachable_machines, op.machine_1, op.machine_2
        if m1 not in machines or m1 not in reach:
            return False
        if op.op_type is OperationType.TRANSPORT:
            if m2 is None or m2 == m1 or m2 not in machines or m2 not in reach:
                return False
        elif m2 is not None:
            return False
    return (
        SOURCE not in ids and TERMINAL not in ids
        # every operation found its robot, so the keys hold the ids
        and len(by_op) == len(ids)
        and sum(map(len, chains.values())) == len(ids)
        and {(op_id, w) for w, chain in chains.items() for op_id in chain}
        == set(map(_PLACE, operations))
        and chains.keys() <= scene._workpieces.keys()
    )


# An operation's id and workpiece, the place it must have in the chains.
_PLACE = attrgetter("id", "workpiece")


def _walk_by_rule(
    operations: Sequence[Operation],
    allocation: Allocation,
    precedence: PrecedenceSet,
    scene: Scene,
) -> list[str]:
    """Every violation of the plan rules, in the order validate_planner_output
    reports them."""
    problems: list[str] = []
    op_ids: set[str] = set()
    for op in operations:
        if op.id in op_ids:
            problems.append(f"duplicate operation id '{op.id}'")
        op_ids.add(op.id)
        if op.id in (SOURCE, TERMINAL):
            problems.append(f"operation id '{op.id}' collides with a reserved vertex")
        if op.op_type is OperationType.TRANSPORT:
            if op.machine_2 is None:
                problems.append(f"transport operation '{op.id}' is missing machine_2")
            elif op.machine_2 == op.machine_1:
                problems.append(
                    f"operation '{op.id}' has identical machine_1 and machine_2"
                )
        elif op.machine_2 is not None:
            problems.append(
                f"operation '{op.id}' is not a transport but carries machine_2"
            )
        if scene.workpiece(op.workpiece) is None:
            problems.append(f"operation '{op.id}' references unknown workpiece '{op.workpiece}'")
        for m in op.machines_used():
            if scene.machine(m) is None:
                problems.append(f"operation '{op.id}' references unknown machine '{m}'")

    for op_id in sorted(allocation.by_op):
        if op_id not in op_ids:
            problems.append(f"allocation covers unknown operation '{op_id}'")
    for op in operations:
        robot_id = allocation.robot_for(op.id)
        if robot_id is None:
            problems.append(f"operation '{op.id}' has no allocated robot")
            continue
        robot = scene.robot(robot_id)
        if robot is None:
            problems.append(f"operation '{op.id}' is allocated to unknown robot '{robot_id}'")
            continue
        for m in op.machines_used():
            if scene.machine(m) is not None and m not in robot.reachable_machines:
                problems.append(
                    f"robot '{robot_id}' cannot reach machine '{m}' "
                    f"required by operation '{op.id}'"
                )

    seen_in_chain: dict[str, str] = {}
    for w in sorted(precedence.chains):
        chain = precedence.chains[w]
        if scene.workpiece(w) is None:
            problems.append(f"precedence chain for unknown workpiece '{w}'")
        chain_seen: set[str] = set()
        for op_id in chain:
            if op_id in chain_seen:
                problems.append(f"operation '{op_id}' repeats in chain of '{w}'")
            chain_seen.add(op_id)
            if op_id in seen_in_chain and seen_in_chain[op_id] != w:
                problems.append(
                    f"operation '{op_id}' appears in chains of both "
                    f"'{seen_in_chain[op_id]}' and '{w}'"
                )
            seen_in_chain[op_id] = w
            if op_id not in op_ids:
                problems.append(f"chain of '{w}' references unknown operation '{op_id}'")
    by_id = {op.id: op for op in operations}
    for op_id, w in seen_in_chain.items():
        op = by_id.get(op_id)
        if op is not None and op.workpiece != w:
            problems.append(
                f"operation '{op_id}' works on '{op.workpiece}' but sits in chain of '{w}'"
            )
    for op in operations:
        if op.id not in seen_in_chain:
            problems.append(f"operation '{op.id}' is missing from every precedence chain")
    return problems
