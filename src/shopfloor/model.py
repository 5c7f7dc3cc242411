"""Core domain model: scenes, operations, allocations, programs, task files.

All types here are plain immutable data. Invariants are enforced by the
validation entry points (load_task_instance, validate_scene,
validate_planner_output), not by the constructors, so tests and tools can
build deliberately broken values and feed them to the validators.

JSON serialization is canonical: fixed key order, sorted collections where
order carries no meaning, two-space indent, trailing newline. Re-serializing
a parsed document always reproduces it byte for byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, NoReturn, Sequence

from .errors import ParseError, ValidationError


class OperationType(Enum):
    TRANSPORT = "transport"
    POLISHING = "polishing"
    WELDING = "welding"
    BEVELING = "beveling"
    ASSEMBLY = "assembly"


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
# executor classifies every skill of a program on each run.
SkillArg = tuple[str, str, str | None]


def classify_args(call: SkillCall) -> tuple[SkillArg, ...]:
    """The arguments of call, classified in order; see SkillArg."""
    context = next(
        (role for role in map(role_placeholder, call.args) if role in MACHINE_ROLES),
        "machine_1",
    )
    out: list[SkillArg] = []
    for arg in call.args:
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

    name: str
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

    source, when present, names how the schedule was produced
    ("optimal" for the exhaustive solver, "fifo" for the dispatcher).
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
# Strict JSON plumbing


def _fail(path: str, message: str) -> NoReturn:
    raise ParseError(f"{path}: {message}")


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {type(value).__name__}")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_str_list(value: Any, path: str) -> list[str]:
    return [_as_str(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path))]


def _check_keys(d: dict, path: str, required: Sequence[str], optional: Sequence[str] = ()) -> None:
    for key in required:
        if key not in d:
            _fail(path, f"missing required key '{key}'")
    allowed = set(required) | set(optional)
    unknown = sorted(set(d) - allowed)
    if unknown:
        _fail(path, f"unknown keys: {', '.join(unknown)}")


def canonical_json(data: Any) -> str:
    """Render a JSON document in the package's canonical layout."""
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Scene JSON


def scene_to_json(scene: Scene) -> dict:
    return {
        "robots": [
            {
                "id": r.id,
                "devices": sorted(r.devices),
                "reachable_machines": sorted(r.reachable_machines),
            }
            for r in sorted(scene.robots, key=lambda r: r.id)
        ],
        "machines": [
            {
                "id": m.id,
                "name": m.name,
                "exclusive": m.exclusive,
                "points": sorted(m.points),
                "held_workpieces": list(m.held_workpieces),
            }
            for m in sorted(scene.machines, key=lambda m: m.id)
        ],
        "workpieces": [
            {
                "id": w.id,
                "kind": w.kind,
                "state_sequence": list(w.state_sequence),
            }
            for w in sorted(scene.workpieces, key=lambda w: w.id)
        ],
    }


def scene_from_json(data: Any, path: str = "scene") -> Scene:
    d = _as_dict(data, path)
    _check_keys(d, path, ["robots", "machines", "workpieces"])
    robots = []
    for i, item in enumerate(_as_list(d["robots"], f"{path}.robots")):
        p = f"{path}.robots[{i}]"
        obj = _as_dict(item, p)
        _check_keys(obj, p, ["id", "devices", "reachable_machines"])
        robots.append(
            Robot(
                id=_as_str(obj["id"], f"{p}.id"),
                devices=frozenset(_as_str_list(obj["devices"], f"{p}.devices")),
                reachable_machines=frozenset(
                    _as_str_list(obj["reachable_machines"], f"{p}.reachable_machines")
                ),
            )
        )
    machines = []
    for i, item in enumerate(_as_list(d["machines"], f"{path}.machines")):
        p = f"{path}.machines[{i}]"
        obj = _as_dict(item, p)
        _check_keys(obj, p, ["id", "name", "exclusive", "points", "held_workpieces"])
        machines.append(
            Machine(
                id=_as_str(obj["id"], f"{p}.id"),
                name=_as_str(obj["name"], f"{p}.name"),
                exclusive=_as_bool(obj["exclusive"], f"{p}.exclusive"),
                points=frozenset(_as_str_list(obj["points"], f"{p}.points")),
                held_workpieces=tuple(
                    _as_str_list(obj["held_workpieces"], f"{p}.held_workpieces")
                ),
            )
        )
    workpieces = []
    for i, item in enumerate(_as_list(d["workpieces"], f"{path}.workpieces")):
        p = f"{path}.workpieces[{i}]"
        obj = _as_dict(item, p)
        _check_keys(obj, p, ["id", "kind", "state_sequence"])
        workpieces.append(
            Workpiece(
                id=_as_str(obj["id"], f"{p}.id"),
                kind=_as_str(obj["kind"], f"{p}.kind"),
                state_sequence=tuple(
                    _as_str_list(obj["state_sequence"], f"{p}.state_sequence")
                ),
            )
        )
    return Scene(robots=tuple(robots), machines=tuple(machines), workpieces=tuple(workpieces))


# ---------------------------------------------------------------------------
# Operation / allocation / precedence JSON


def operation_to_json(op: Operation) -> dict:
    out = {
        "id": op.id,
        "type": op.op_type.value,
        "workpiece": op.workpiece,
        "machine_1": op.machine_1,
    }
    if op.machine_2 is not None:
        out["machine_2"] = op.machine_2
    return out


def operation_from_json(data: Any, path: str = "operation") -> Operation:
    d = _as_dict(data, path)
    _check_keys(d, path, ["id", "type", "workpiece", "machine_1"], ["machine_2"])
    type_text = _as_str(d["type"], f"{path}.type")
    try:
        op_type = OperationType(type_text)
    except ValueError:
        _fail(f"{path}.type", f"unknown operation type '{type_text}'")
    machine_2 = None
    if "machine_2" in d:
        machine_2 = _as_str(d["machine_2"], f"{path}.machine_2")
    return Operation(
        id=_as_str(d["id"], f"{path}.id"),
        op_type=op_type,
        workpiece=_as_str(d["workpiece"], f"{path}.workpiece"),
        machine_1=_as_str(d["machine_1"], f"{path}.machine_1"),
        machine_2=machine_2,
    )


def allocation_to_json(alloc: Allocation) -> dict:
    return {op_id: alloc.by_op[op_id] for op_id in sorted(alloc.by_op)}


def allocation_from_json(data: Any, path: str = "allocation") -> Allocation:
    d = _as_dict(data, path)
    return Allocation(by_op={k: _as_str(v, f"{path}.{k}") for k, v in d.items()})


def precedence_to_json(prec: PrecedenceSet) -> dict:
    return {w: list(prec.chains[w]) for w in sorted(prec.chains)}


def precedence_from_json(data: Any, path: str = "precedence") -> PrecedenceSet:
    d = _as_dict(data, path)
    return PrecedenceSet(
        chains={k: tuple(_as_str_list(v, f"{path}.{k}")) for k, v in d.items()}
    )


# ---------------------------------------------------------------------------
# Program JSON


def skill_call_to_json(call: SkillCall) -> dict:
    return {"skill": call.skill, "args": list(call.args)}


def skill_call_from_json(data: Any, path: str = "skill_call") -> SkillCall:
    d = _as_dict(data, path)
    _check_keys(d, path, ["skill", "args"])
    return SkillCall(
        skill=_as_str(d["skill"], f"{path}.skill"),
        args=tuple(_as_str_list(d["args"], f"{path}.args")),
    )


def program_to_json(program: Program) -> dict:
    return {
        "calls": [
            {
                "op_id": c.op_id,
                "wrapper": c.wrapper,
                "args": {k: c.args[k] for k in sorted(c.args)},
            }
            for c in program.calls
        ],
        "wrappers": {
            name: {
                "execution": w.execution,
                "binding": {k: w.binding[k] for k in sorted(w.binding)},
            }
            for name, w in sorted(program.wrappers.items())
        },
        "executions": {
            name: [skill_call_to_json(s) for s in skills]
            for name, skills in sorted(program.executions.items())
        },
    }


def program_from_json(data: Any, path: str = "program") -> Program:
    d = _as_dict(data, path)
    _check_keys(d, path, ["calls", "wrappers", "executions"])
    calls = []
    for i, item in enumerate(_as_list(d["calls"], f"{path}.calls")):
        p = f"{path}.calls[{i}]"
        obj = _as_dict(item, p)
        _check_keys(obj, p, ["op_id", "wrapper", "args"])
        args = _as_dict(obj["args"], f"{p}.args")
        calls.append(
            ProgramCall(
                op_id=_as_str(obj["op_id"], f"{p}.op_id"),
                wrapper=_as_str(obj["wrapper"], f"{p}.wrapper"),
                args={k: _as_str(v, f"{p}.args.{k}") for k, v in args.items()},
            )
        )
    wrappers = {}
    for name, item in _as_dict(d["wrappers"], f"{path}.wrappers").items():
        p = f"{path}.wrappers.{name}"
        obj = _as_dict(item, p)
        _check_keys(obj, p, ["execution", "binding"])
        binding = _as_dict(obj["binding"], f"{p}.binding")
        wrappers[name] = Wrapper(
            name=name,
            execution=_as_str(obj["execution"], f"{p}.execution"),
            binding={k: _as_str(v, f"{p}.binding.{k}") for k, v in binding.items()},
        )
    executions = {}
    for name, item in _as_dict(d["executions"], f"{path}.executions").items():
        p = f"{path}.executions.{name}"
        executions[name] = tuple(
            skill_call_from_json(s, f"{p}[{i}]")
            for i, s in enumerate(_as_list(item, p))
        )
    return Program(calls=tuple(calls), wrappers=wrappers, executions=executions)


# ---------------------------------------------------------------------------
# Schedule record JSON


def schedule_record_to_json(record: ScheduleRecord) -> dict:
    out: dict[str, Any] = {
        "start_steps": {k: record.start_steps[k] for k in sorted(record.start_steps)},
        "makespan": record.makespan,
    }
    if record.source is not None:
        out["source"] = record.source
    return out


def schedule_record_from_json(data: Any, path: str = "schedule") -> ScheduleRecord:
    d = _as_dict(data, path)
    _check_keys(d, path, ["start_steps", "makespan"], ["source"])
    steps = _as_dict(d["start_steps"], f"{path}.start_steps")
    source = None
    if "source" in d:
        source = _as_str(d["source"], f"{path}.source")
    return ScheduleRecord(
        start_steps={k: _as_int(v, f"{path}.start_steps.{k}") for k, v in steps.items()},
        makespan=_as_int(d["makespan"], f"{path}.makespan"),
        source=source,
    )


# ---------------------------------------------------------------------------
# Task instance JSON


def task_instance_to_json(task: TaskInstance) -> dict:
    out: dict[str, Any] = {
        "scene": scene_to_json(task.scene),
        "instruction": task.instruction,
    }
    if task.ground_truth is not None:
        gt = task.ground_truth
        gt_json: dict[str, Any] = {
            "operations": [operation_to_json(op) for op in gt.operations],
            "allocation": allocation_to_json(gt.allocation),
            "precedence": precedence_to_json(gt.precedence),
        }
        if gt.program is not None:
            gt_json["program"] = program_to_json(gt.program)
        if gt.schedule is not None:
            gt_json["schedule"] = schedule_record_to_json(gt.schedule)
        out["ground_truth"] = gt_json
    return out


def task_instance_from_json(data: Any, path: str = "task") -> TaskInstance:
    d = _as_dict(data, path)
    _check_keys(d, path, ["scene", "instruction"], ["ground_truth"])
    scene = scene_from_json(d["scene"], f"{path}.scene")
    instruction = _as_str(d["instruction"], f"{path}.instruction")
    ground_truth = None
    if "ground_truth" in d:
        p = f"{path}.ground_truth"
        gt = _as_dict(d["ground_truth"], p)
        _check_keys(gt, p, ["operations", "allocation", "precedence"], ["program", "schedule"])
        operations = tuple(
            operation_from_json(item, f"{p}.operations[{i}]")
            for i, item in enumerate(_as_list(gt["operations"], f"{p}.operations"))
        )
        program = None
        if "program" in gt:
            program = program_from_json(gt["program"], f"{p}.program")
        schedule = None
        if "schedule" in gt:
            schedule = schedule_record_from_json(gt["schedule"], f"{p}.schedule")
        ground_truth = GroundTruth(
            operations=operations,
            allocation=allocation_from_json(gt["allocation"], f"{p}.allocation"),
            precedence=precedence_from_json(gt["precedence"], f"{p}.precedence"),
            program=program,
            schedule=schedule,
        )
    return TaskInstance(scene=scene, instruction=instruction, ground_truth=ground_truth)


def serialize_task_instance(task: TaskInstance) -> str:
    return canonical_json(task_instance_to_json(task))


def parse_task_instance(text: str, path: str = "task") -> TaskInstance:
    """Parse and fully validate a task document. Raises ParseError on shape
    problems and ValidationError on invariant violations."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    task = task_instance_from_json(data, path)
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
    return parse_task_instance(text, str(p))


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
