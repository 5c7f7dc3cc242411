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
once, as a codec built from the strict-JSON combinators below (STR, INT,
BOOL, EnumOf, ArrayOf, MapOf, Wrap, Record); tree and executor declare the
process tree and the trace line with them. A Record or Wrap takes its keys
from its class's _fields and _field_defaults, so a record's fields are
written only in the class. A codec's load rejects every shape fault with
a ParseError naming its path; the path is built only on failure, as the
fault unwinds through the enclosing levels. Serialization is canonical:
fixed key order, sorted collections where order carries no meaning,
two-space indent, trailing newline. Re-serializing a parsed document always
reproduces it byte for byte. Codecs render typed values straight to text
and canonical_json renders plain ones (metrics, summaries), all in one
layout (_layout) whose bytes equal json.dumps(data, indent=2,
ensure_ascii=False) plus a newline, or json.dumps(data, ensure_ascii=False)
for the one line of a trace step, without the stdlib's Python encoder.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
from enum import Enum
from functools import lru_cache, partial
from json.encoder import encode_basestring as _quote
from operator import attrgetter, length_hint
from pathlib import Path
from typing import Any, Callable, Collection, Mapping, NamedTuple, NoReturn, Sequence

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


@lru_cache(maxsize=64)
def _layout(newline: str) -> tuple[str, str]:
    """(inner, separator) of a container rendered after newline: the opening
    bracket, inner, the items joined by separator, newline, the closing
    bracket; the brackets alone when empty. inner is two spaces deeper; in
    the one-line layout (newline "") it is "" and separator is ", "."""
    inner = newline and newline + "  "
    return inner, "," + (inner or " ")


def _render(value: Any, newline: str) -> str:
    """A plain value in the canonical layout; newline is "\\n" plus the
    indent of the line value starts on, or "" for the one-line layout."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict:
        return _PLAIN_OBJECT.render(value, newline)
    if kind is list or kind is tuple:
        return _PLAIN_ARRAY.render(value, newline)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Strict JSON codecs
#
# A codec's render(value, newline) writes value's text straight from the
# typed value, in the layout of _layout; load(data, path) checks data and
# builds the value, raising ParseError with the path of the offending
# element. Records check missing keys first, then unknown keys.


class _Fault(Exception):
    """A shape fault found by a codec's read. Each enclosing level appends
    its own segment (".key", "[i]") to segments as the fault unwinds, so
    the path is built only on failure."""

    def __init__(self, message: str) -> None:
        self.message = message
        self.segments: list[str] = []


def _fail(message: str) -> NoReturn:
    raise _Fault(message)


def _object(data: Any) -> dict:
    if not isinstance(data, dict):
        _fail(f"expected an object, got {type(data).__name__}")
    return data


class Codec:
    """A strict-JSON format: render(value, newline) writes value's text, as
    _render does (a container's is a closure over its items' render), and
    read(data) checks and builds without a path, raising _Fault."""

    # The exact type of every value when the codec is a Scalar, else None.
    kind: type | None = None

    def serialize(self, value: Any) -> str:
        """value as a canonical document, ended by a newline."""
        return self.render(value, "\n") + "\n"

    def load(self, data: Any, path: str) -> Any:
        """read(data); a shape fault raises ParseError naming its path."""
        try:
            return self.read(data)
        except _Fault as fault:
            raise ParseError(
                f"{path}{''.join(reversed(fault.segments))}: {fault.message}"
            ) from None


def _read_each(item: Codec, values: Collection[Any], segment: Callable[[int], str]) -> Any:
    """item.read of each of values, in order; a fault gets segment(i) for
    the position i of the value that raised it. Values of a Scalar are
    returned as they are when all have its exact type."""
    if item.kind is not None and set(map(type, values)) <= {item.kind}:
        return values
    items = iter(values)
    try:
        return [item.read(v) for v in items]
    except _Fault as fault:
        # the iterator has yielded every value up to the one that raised
        fault.segments.append(segment(len(values) - length_hint(items) - 1))
        raise


class Scalar(Codec):
    """A JSON string, integer or boolean. The type must match exactly, so a
    boolean is not an integer. A value renders as in canonical_json, so one
    of another type renders or raises by its own type."""

    def __init__(self, kind: type, noun: str) -> None:
        self.kind, self.noun = kind, noun

    render = staticmethod(_render)

    def read(self, data: Any) -> Any:
        if type(data) is not self.kind:
            _fail(f"expected {self.noun}, got {type(data).__name__}")
        return data


STR = Scalar(str, "a string")
INT = Scalar(int, "an integer")
BOOL = Scalar(bool, "a boolean")


class EnumOf(Codec):
    """An enum member stored as its value text; extra texts map to further
    values (the process tree's "general" node type is None)."""

    def __init__(self, enum: type[Enum], noun: str, **extra: Any) -> None:
        self.noun = noun
        self.by_text = {member.value: member for member in enum} | extra
        quoted = {value: _quote(text) for text, value in self.by_text.items()}
        self.render = lambda value, newline: quoted[value]

    def read(self, data: Any) -> Any:
        try:
            return self.by_text[STR.read(data)]
        except KeyError:
            _fail(f"unknown {self.noun} '{data}'")


_index_segment = "[{}]".format


class ArrayOf(Codec):
    """A JSON array; load passes the items to build, render lists them in
    the order that order(value) gives, or as they come when order is None."""

    def __init__(self, item: Codec, build: Callable = tuple, order: Callable | None = None) -> None:
        self.item, self.build, self.order = item, build, order
        render_item, scalar = item.render, item.kind is not None

        def render(value, newline):
            if order is not None:
                value = order(value)
            inner, separator = _layout(newline)
            parts = [_quote(v) if scalar and type(v) is str else render_item(v, inner)
                     for v in value]
            return f"[{inner}{separator.join(parts)}{newline}]" if parts else "[]"
        self.render = render

    def read(self, data: Any) -> Any:
        if not isinstance(data, list):
            _fail(f"expected an array, got {type(data).__name__}")
        return self.build(_read_each(self.item, data, _index_segment))


class MapOf(Codec):
    """A JSON object with free keys, rendered in the order that order(value)
    gives its keys, sorted by default."""

    def __init__(self, item: Codec, order: Callable = sorted) -> None:
        self.item = item
        render_item = item.render

        def render(value, newline):
            inner, separator = _layout(newline)
            # encode_basestring raises TypeError for a key that is not a str
            parts = [f"{_quote(k)}: {render_item(value[k], inner)}" for k in order(value)]
            return f"{{{inner}{separator.join(parts)}{newline}}}" if parts else "{}"
        self.render = render

    def read(self, data: Any) -> dict:
        obj = _object(data)
        return dict(zip(obj, _read_each(self.item, obj.values(), lambda i: f".{list(obj)[i]}")))


# Plain JSON containers, which canonical_json renders; never read.
_PLAIN_ARRAY = ArrayOf(Scalar(object, "a JSON value"))
_PLAIN_OBJECT = MapOf(_PLAIN_ARRAY.item, order=iter)


class Wrap(Codec):
    """A type whose constructor takes one parameter (its _fields), stored as
    that parameter's value alone."""

    def __init__(self, cls: type, inner: Codec) -> None:
        params = cls._fields
        if len(params) != 1:
            raise TypeError(
                f"Wrap({cls.__name__}): the constructor takes {len(params)} parameters, not 1"
            )
        self.cls, self.attr, self.inner = cls, params[0], inner
        render_inner, get = inner.render, attrgetter(self.attr)
        self.render = lambda value, newline: render_inner(get(value), newline)

    def read(self, data: Any) -> Any:
        return self.cls(self.inner.read(data))


class Record(Codec):
    """A JSON object with one key per parameter of cls's constructor (its
    _fields, with defaults in _field_defaults), rendered in that order and
    loaded into cls by keyword. codecs names each parameter's codec; keys
    maps a parameter to its key where the two differ. A parameter whose
    default is None is optional: its key may be missing, and render leaves
    it out while it is None. Codec names other than exactly the parameters
    raise TypeError when the Record is made."""

    def __init__(self, cls: type, keys: Mapping[str, str] = {}, **codecs: Codec) -> None:
        params, defaults = cls._fields, cls._field_defaults
        missing = [name for name in params if name not in codecs]
        unknown = [name for name in (*codecs, *keys) if name not in params]
        if missing or unknown:
            raise TypeError(
                f"Record({cls.__name__}) takes one codec per constructor parameter; "
                f"missing: {', '.join(missing) or '-'}; unknown: {', '.join(unknown) or '-'}"
            )
        self.cls = cls
        # (key, codec, attribute, optional) of each parameter, in order
        fields = [(keys.get(name, name), codecs[name], name,
                   name in defaults and defaults[name] is None) for name in params]
        self.keys = frozenset(key for key, _, _, _ in fields)
        self.required = frozenset(key for key, _, _, optional in fields if not optional)
        self.reads = tuple((key, codec.read, attr) for key, codec, attr, _ in fields)
        renders = tuple(
            (f"{_quote(key)}: ", codec.render, attr, optional, codec.kind is not None)
            for key, codec, attr, optional in fields
        )

        def render(value, newline):
            inner, separator = _layout(newline)
            parts = [
                prefix + (_quote(item) if scalar and type(item) is str else render_item(item, inner))
                for prefix, render_item, attr, optional, scalar in renders
                if (item := getattr(value, attr)) is not None or not optional
            ]
            return f"{{{inner}{separator.join(parts)}{newline}}}" if parts else "{}"
        self.render = render

    def read(self, data: Any) -> Any:
        obj = _object(data)
        # most objects carry every key, which one comparison shows
        if obj.keys() != self.keys and not self.required <= obj.keys() <= self.keys:
            for key, _, _ in self.reads:
                if key in self.required and key not in obj:
                    _fail(f"missing required key '{key}'")
            _fail(f"unknown keys: {', '.join(sorted(obj.keys() - self.keys))}")
        reads = iter(self.reads)
        try:
            kwargs = {attr: read(obj[key]) for key, read, attr in reads if key in obj}
        except _Fault as fault:
            # the iterator has yielded every field up to the one that raised
            fault.segments.append(f".{self.reads[len(self.reads) - length_hint(reads) - 1][0]}")
            raise
        return self.cls(**kwargs)


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
    """
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
    return ValidationReport(violations=tuple(problems))
