"""Core domain model: scenes, operations, allocations, programs, task files.

All types here are plain immutable data. Invariants are enforced by the
validation entry points (load_task_instance, validate_scene,
validate_planner_output), not by the constructors, so tests and tools can
build deliberately broken values and feed them to the validators.

Each file format (task, scene, plan, program, schedule record) is declared
once, as a codec built from the strict-JSON combinators below (STR, INT,
BOOL, EnumOf, ArrayOf, MapOf, Wrap, Record); tree and executor declare the
process tree and the trace line with them. A codec's load rejects every
shape fault with a ParseError naming its path. Serialization is canonical:
fixed key order, sorted collections where order carries no meaning,
two-space indent, trailing newline. Re-serializing a parsed document always
reproduces it byte for byte.
"""

from __future__ import annotations

import json
import os
import re
import stat
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, NoReturn, Protocol, Sequence

from .errors import ParseError, ValidationError


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

# Role placeholders a wrapper must bind; written in snippets as "{robot}" etc.
PLACEHOLDER_ROLES = ("robot", "machine_1", "machine_2", "workpiece")
MACHINE_ROLES = ("machine_1", "machine_2")
_ROLE_OF_PLACEHOLDER = {"{" + role + "}": role for role in PLACEHOLDER_ROLES}

_POINT_RE = re.compile(r"^\{point:([^{}]+)\}$")
_DEVICE_RE = re.compile(r"^\{device:([^{}]+)\}$")
_AT_RE = re.compile(r"^at\(([^()]+)\)$")


def role_placeholder(arg: str) -> str | None:
    """Return the role name if arg is a role placeholder like "{machine_1}"."""
    return _ROLE_OF_PLACEHOLDER.get(arg)


def point_name(arg: str) -> str | None:
    m = _POINT_RE.match(arg)
    return m.group(1) if m else None


def device_name(arg: str) -> str | None:
    m = _DEVICE_RE.match(arg)
    return m.group(1) if m else None


def at_label(machine_id: str) -> str:
    """Location fact label for a workpiece sitting at the given machine."""
    return f"at({machine_id})"


def parse_at_label(label: str) -> str | None:
    """Inverse of at_label; None when the label is not a location fact."""
    m = _AT_RE.match(label)
    return m.group(1) if m else None


# ---------------------------------------------------------------------------
# Scene


@dataclass(frozen=True, slots=True)
class Robot:
    id: str
    devices: frozenset[str]
    reachable_machines: frozenset[str]


@dataclass(frozen=True, slots=True)
class Machine:
    """A workstation. exclusive machines admit one operation per step.

    points are named reference positions (opaque labels) that skill calls
    may require; held_workpieces is the initial placement, in order.
    """

    id: str
    name: str
    exclusive: bool = True
    points: frozenset[str] = frozenset()
    held_workpieces: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Workpiece:
    id: str
    kind: str
    state_sequence: tuple[str, ...] = ()


def _first_by_id(items: Sequence[Any]) -> dict[str, Any]:
    """id -> entity; with duplicate ids the first entry wins."""
    index: dict[str, Any] = {}
    for item in items:
        index.setdefault(item.id, item)
    return index


@dataclass(frozen=True, slots=True)
class Scene:
    """The floor. Lookups by id go through indexes built at construction;
    with duplicate ids (which validate_scene reports) the first entry wins."""

    robots: tuple[Robot, ...]
    machines: tuple[Machine, ...]
    workpieces: tuple[Workpiece, ...]
    _robots: Mapping[str, Robot] = field(init=False, repr=False, compare=False)
    _machines: Mapping[str, Machine] = field(init=False, repr=False, compare=False)
    _workpieces: Mapping[str, Workpiece] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_robots", _first_by_id(self.robots))
        object.__setattr__(self, "_machines", _first_by_id(self.machines))
        object.__setattr__(self, "_workpieces", _first_by_id(self.workpieces))

    def robot(self, robot_id: str) -> Robot:
        return self._robots[robot_id]

    def machine(self, machine_id: str) -> Machine:
        return self._machines[machine_id]

    def workpiece(self, workpiece_id: str) -> Workpiece:
        return self._workpieces[workpiece_id]

    def has_robot(self, robot_id: str) -> bool:
        return robot_id in self._robots

    def has_machine(self, machine_id: str) -> bool:
        return machine_id in self._machines

    def has_workpiece(self, workpiece_id: str) -> bool:
        return workpiece_id in self._workpieces


# ---------------------------------------------------------------------------
# Plan triple


@dataclass(frozen=True, slots=True)
class Operation:
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


@dataclass(frozen=True)
class Allocation:
    """Total mapping from operation id to the robot that performs it."""

    by_op: Mapping[str, str]

    def robot_for(self, op_id: str) -> str | None:
        return self.by_op.get(op_id)


@dataclass(frozen=True)
class PrecedenceSet:
    """Per-workpiece operation chains; each chain is a total order."""

    chains: Mapping[str, tuple[str, ...]]


# ---------------------------------------------------------------------------
# Program


@dataclass(frozen=True, slots=True)
class SkillCall:
    skill: str
    args: tuple[str, ...]


# A classified skill-call argument: (kind, name, machine_role). kind is
# "role" ("{machine_1}"), "device" ("{device:camera}"), "point"
# ("{point:Photo_Point}") or "literal"; name is the role, device or point
# name, or the literal text. machine_role is None except for a point, where
# it names the machine that must carry it: the first machine-role
# placeholder in the same call, else machine_1. Plain tuples, because the
# executor reads them for every skill it runs.
SkillArg = tuple[str, str, str | None]


@cache
def classify_args(args: tuple[str, ...]) -> tuple[SkillArg, ...]:
    """A skill call's arguments, classified in order; see SkillArg.
    Memoized on the tuple: each distinct argument tuple, whether from the
    tree or a program file, is classified once per process."""
    context = next(
        (role for role in map(role_placeholder, args) if role in MACHINE_ROLES),
        "machine_1",
    )
    out: list[SkillArg] = []
    for arg in args:
        if (role := role_placeholder(arg)) is not None:
            out.append(("role", role, None))
        elif (device := device_name(arg)) is not None:
            out.append(("device", device, None))
        elif (point := point_name(arg)) is not None:
            out.append(("point", point, context))
        else:
            out.append(("literal", arg, None))
    return tuple(out)


@dataclass(frozen=True)
class ProgramCall:
    """Entry point for one operation: invokes a wrapper with bound arguments."""

    op_id: str
    wrapper: str
    args: Mapping[str, str]


@dataclass(frozen=True)
class Wrapper:
    """Binds one operation's concrete robot/machines/workpiece into a shared
    execution function's placeholders."""

    execution: str
    binding: Mapping[str, str]


@dataclass(frozen=True)
class Program:
    calls: tuple[ProgramCall, ...]
    wrappers: Mapping[str, Wrapper]
    executions: Mapping[str, tuple[SkillCall, ...]]


# ---------------------------------------------------------------------------
# Schedule record (file form; the solver's richer ScheduleGraph lives in solve)


@dataclass(frozen=True)
class ScheduleRecord:
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


@dataclass(frozen=True)
class GroundTruth:
    operations: tuple[Operation, ...]
    allocation: Allocation
    precedence: PrecedenceSet
    program: Program | None = None
    schedule: ScheduleRecord | None = None


@dataclass(frozen=True)
class TaskInstance:
    scene: Scene
    instruction: str
    ground_truth: GroundTruth | None = None


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validation pass: ok iff violations is empty."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Strict JSON codecs
#
# A codec's dump(value) gives the canonical JSON value; load(data, path)
# checks data and builds the value, raising ParseError with the path of the
# offending element. Records check missing keys first, then unknown keys.


def _fail(path: str, message: str) -> NoReturn:
    raise ParseError(f"{path}: {message}")


def _object(data: Any, path: str) -> dict:
    if not isinstance(data, dict):
        _fail(path, f"expected an object, got {type(data).__name__}")
    return data


class Codec(Protocol):
    def dump(self, value: Any) -> Any: ...

    def load(self, data: Any, path: str) -> Any: ...


class Scalar:
    """A JSON string, integer or boolean. The type must match exactly, so a
    boolean is not an integer."""

    def __init__(self, kind: type, noun: str) -> None:
        self.kind, self.noun = kind, noun

    def dump(self, value: Any) -> Any:
        return value

    def load(self, data: Any, path: str) -> Any:
        if type(data) is not self.kind:
            _fail(path, f"expected {self.noun}, got {type(data).__name__}")
        return data


STR = Scalar(str, "a string")
INT = Scalar(int, "an integer")
BOOL = Scalar(bool, "a boolean")


class EnumOf:
    """An enum member stored as its value text; extra texts map to further
    values (the process tree's "general" node type is None)."""

    def __init__(self, enum: type[Enum], noun: str, **extra: Any) -> None:
        self.noun = noun
        self.by_text = {member.value: member for member in enum} | extra
        self.text_of = {value: text for text, value in self.by_text.items()}

    def dump(self, value: Any) -> str:
        return self.text_of[value]

    def load(self, data: Any, path: str) -> Any:
        text = STR.load(data, path)
        if text not in self.by_text:
            _fail(path, f"unknown {self.noun} '{text}'")
        return self.by_text[text]


class ArrayOf:
    """A JSON array; load passes the items to build, dump lists them in the
    order that order(value) gives, or as they come when order is None."""

    def __init__(self, item: Codec, build: Callable = tuple, order: Callable | None = None) -> None:
        self.item, self.build, self.order = item, build, order

    def dump(self, value: Iterable[Any]) -> list:
        if self.order is not None:
            value = self.order(value)
        dump = self.item.dump
        return [dump(v) for v in value]

    def load(self, data: Any, path: str) -> Any:
        if not isinstance(data, list):
            _fail(path, f"expected an array, got {type(data).__name__}")
        load = self.item.load
        return self.build([load(v, f"{path}[{i}]") for i, v in enumerate(data)])


class MapOf:
    """A JSON object with free keys, dumped in key order."""

    def __init__(self, item: Codec) -> None:
        self.item = item

    def dump(self, value: Mapping[str, Any]) -> dict:
        return {k: self.item.dump(value[k]) for k in sorted(value)}

    def load(self, data: Any, path: str) -> dict:
        return {k: self.item.load(v, f"{path}.{k}") for k, v in _object(data, path).items()}


class Wrap:
    """A type with a single field, stored as that field alone."""

    def __init__(self, cls: type, attr: str, inner: Codec) -> None:
        self.cls, self.attr, self.inner = cls, attr, inner

    def dump(self, value: Any) -> Any:
        return self.inner.dump(getattr(value, self.attr))

    def load(self, data: Any, path: str) -> Any:
        return self.cls(**{self.attr: self.inner.load(data, path)})


class Field(NamedTuple):
    key: str
    codec: Codec
    attr: str
    optional: bool


def req(key: str, codec: Codec, attr: str | None = None) -> Field:
    """A required record field; attr names the attribute when it differs."""
    return Field(key, codec, attr or key, False)


def opt(key: str, codec: Codec, attr: str | None = None) -> Field:
    """An optional record field, omitted from the dump while None."""
    return Field(key, codec, attr or key, True)


class Record:
    """A JSON object with fixed keys, dumped in declaration order and
    loaded into cls by keyword."""

    def __init__(self, cls: type, *fields: Field) -> None:
        self.cls, self.fields = cls, fields
        self.required = [f.key for f in fields if not f.optional]
        self.keys = frozenset(f.key for f in fields)

    def dump(self, value: Any) -> dict:
        out = {}
        for key, codec, attr, optional in self.fields:
            item = getattr(value, attr)
            if item is not None or not optional:
                out[key] = codec.dump(item)
        return out

    def load(self, data: Any, path: str) -> Any:
        obj = _object(data, path)
        for key in self.required:
            if key not in obj:
                _fail(path, f"missing required key '{key}'")
        unknown = obj.keys() - self.keys
        if unknown:
            _fail(path, f"unknown keys: {', '.join(sorted(unknown))}")
        return self.cls(
            **{
                attr: codec.load(obj[key], f"{path}.{key}")
                for key, codec, attr, _ in self.fields
                if key in obj
            }
        )


def parse_json(text: str, path: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def canonical_json(data: Any) -> str:
    """Render a JSON document in the package's canonical layout."""
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# File formats

STRS = ArrayOf(STR)
STR_SET = ArrayOf(STR, build=frozenset, order=sorted)
STR_MAP = MapOf(STR)
_sorted_by_id = partial(sorted, key=attrgetter("id"))

ROBOT = Record(
    Robot, req("id", STR), req("devices", STR_SET), req("reachable_machines", STR_SET)
)
MACHINE = Record(
    Machine,
    req("id", STR),
    req("name", STR),
    req("exclusive", BOOL),
    req("points", STR_SET),
    req("held_workpieces", STRS),
)
WORKPIECE = Record(Workpiece, req("id", STR), req("kind", STR), req("state_sequence", STRS))
SCENE = Record(
    Scene,
    req("robots", ArrayOf(ROBOT, order=_sorted_by_id)),
    req("machines", ArrayOf(MACHINE, order=_sorted_by_id)),
    req("workpieces", ArrayOf(WORKPIECE, order=_sorted_by_id)),
)

OPERATION = Record(
    Operation,
    req("id", STR),
    req("type", EnumOf(OperationType, "operation type"), attr="op_type"),
    req("workpiece", STR),
    req("machine_1", STR),
    opt("machine_2", STR),
)
ALLOCATION = Wrap(Allocation, "by_op", STR_MAP)
PRECEDENCE = Wrap(PrecedenceSet, "chains", MapOf(STRS))

SKILL_CALL = Record(SkillCall, req("skill", STR), req("args", STRS))
PROGRAM_CALL = Record(ProgramCall, req("op_id", STR), req("wrapper", STR), req("args", STR_MAP))
WRAPPER = Record(Wrapper, req("execution", STR), req("binding", STR_MAP))
PROGRAM = Record(
    Program,
    req("calls", ArrayOf(PROGRAM_CALL)),
    req("wrappers", MapOf(WRAPPER)),
    req("executions", MapOf(ArrayOf(SKILL_CALL))),
)

SCHEDULE_RECORD = Record(
    ScheduleRecord, req("start_steps", MapOf(INT)), req("makespan", INT), opt("source", STR)
)

GROUND_TRUTH = Record(
    GroundTruth,
    req("operations", ArrayOf(OPERATION)),
    req("allocation", ALLOCATION),
    req("precedence", PRECEDENCE),
    opt("program", PROGRAM),
    opt("schedule", SCHEDULE_RECORD),
)
TASK = Record(
    TaskInstance,
    req("scene", SCENE),
    req("instruction", STR),
    opt("ground_truth", GROUND_TRUTH),
)

# Whole-document entry points.
scene_to_json = SCENE.dump
program_to_json = PROGRAM.dump
schedule_record_to_json = SCHEDULE_RECORD.dump
task_instance_to_json = TASK.dump


def program_from_json(data: Any, path: str = "program") -> Program:
    return PROGRAM.load(data, path)


def schedule_record_from_json(data: Any, path: str = "schedule") -> ScheduleRecord:
    return SCHEDULE_RECORD.load(data, path)


def task_instance_from_json(data: Any, path: str = "task") -> TaskInstance:
    return TASK.load(data, path)


def serialize_task_instance(task: TaskInstance) -> str:
    return canonical_json(TASK.dump(task))


def parse_task_instance(text: str, path: str = "task") -> TaskInstance:
    """Parse and fully validate a task document. Raises ParseError on shape
    problems and ValidationError on invariant violations."""
    task = TASK.load(parse_json(text, path), path)
    violations = validate_scene(task.scene)
    if task.ground_truth is not None:
        gt = task.ground_truth
        report = validate_planner_output(
            gt.operations, gt.allocation, gt.precedence, task.scene
        )
        violations.extend(report.violations)
        if gt.schedule is not None:
            op_ids = {op.id for op in gt.operations}
            if set(gt.schedule.start_steps) != op_ids:
                violations.append(
                    "ground-truth schedule must assign a start step to exactly the "
                    "ground-truth operations"
                )
    if violations:
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

    The file is opened without O_TRUNC and, once every byte is written, cut
    to the new length: on ext4 mounted with discard, rewriting an 800-byte
    file took a median 90-130 us when truncated on open and 18 us in place.
    A reader may see a half-written file; the write is not atomic. Targets
    that are not regular files (/dev/null, a pipe) are written without the
    cut, which they do not support.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
        out.write(data)
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate(len(data))


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

    A passing report guarantees the triple can be turned into a graph:
    ids are unique, references resolve, machine_2 appears exactly on
    transport operations, the allocation is total over reachable robots,
    and each operation sits in exactly one workpiece chain.
    """
    problems: list[str] = []
    op_ids: set[str] = set()
    for op in operations:
        if op.id in op_ids:
            problems.append(f"duplicate operation id '{op.id}'")
        op_ids.add(op.id)
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
        if not scene.has_workpiece(op.workpiece):
            problems.append(f"operation '{op.id}' references unknown workpiece '{op.workpiece}'")
        for m in op.machines_used():
            if not scene.has_machine(m):
                problems.append(f"operation '{op.id}' references unknown machine '{m}'")

    for op_id in sorted(allocation.by_op):
        if op_id not in op_ids:
            problems.append(f"allocation covers unknown operation '{op_id}'")
    for op in operations:
        robot_id = allocation.robot_for(op.id)
        if robot_id is None:
            problems.append(f"operation '{op.id}' has no allocated robot")
            continue
        if not scene.has_robot(robot_id):
            problems.append(f"operation '{op.id}' is allocated to unknown robot '{robot_id}'")
            continue
        robot = scene.robot(robot_id)
        for m in op.machines_used():
            if scene.has_machine(m) and m not in robot.reachable_machines:
                problems.append(
                    f"robot '{robot_id}' cannot reach machine '{m}' "
                    f"required by operation '{op.id}'"
                )

    seen_in_chain: dict[str, str] = {}
    for w in sorted(precedence.chains):
        chain = precedence.chains[w]
        if not scene.has_workpiece(w):
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
    return ValidationReport(violations=tuple(problems))
