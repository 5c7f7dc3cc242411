"""Symbolic execution of an assembled program under a schedule.

Execution tracks where every workpiece sits, starting from the machine
that holds it in the scene, and which processing flags it has collected.
It reports the status facts it made true: (w, at(m)) for each workpiece w
whose final machine m differs from its start, and (w, flag) for each flag
w collected. A piece carried back to its start adds no location fact.

Execution walks the schedule step by step: a step launches exactly the
operations whose start step it is and whose schedule predecessors (the
chain predecessor and the previous user of each resource the operation
holds, see ScheduleGraph.predecessors) completed successfully. All
operations of a step read the state as of the step's beginning; their
effects land when the step ends.

An effect comes from the operation itself, never from the program: when
the step ends, each operation that completed in it moves its workpiece to
machine_2 (machine_1 when unset) if it is a transport, and otherwise adds
the flag of its type (model.PROCESSING_FLAGS). The program decides only
whether the operation completes.

An operation fails at the first offending skill and its effects are
discarded; schedule descendants of a failed or blocked operation never
launch, so a failure blocks every later user of its resources, while
independent operations carry on. Failures never raise, they
become trace entries. Operation-level precondition failures (no call in
the program, workpiece not at machine_1) are recorded with skill index -1
since they precede the first skill.

Each run indexes the call of every operation (the first call wins when a
program holds several) and the operations due at every step. Execution
functions are linked once per process, keyed by their skills (names and
argument tuples), never by their names: a link holds each skill with its
classified arguments (classify_args) and a summary of what the whole
function requires (whether every skill is known, the roles its arguments
name, and its needs: the devices and the points on each machine role
they name, which needs() states for the tree's branch selection too).
Every operation checks that summary against the wrapper's binding, the
robot's devices and the points of the machines that the machine_1 and
machine_2 roles name (op.machine_1 when a role is unbound); an unknown
robot or machine counts as having none. When the check holds, the calls
depend on the binding alone, so the link memoizes them under the
binding's items: every operation that binds the same values shares one
tuple of calls, whose SkillCall objects are shared too, one per distinct
call. When it fails, _walk_by_argument resolves one argument at a time,
the statement of which argument fails first, and nothing is memoized.

The skill-argument grammar (role placeholders such as "{machine_1}",
"{device:NAME}", "{point:NAME}") is stated once, in classify_args, its
only reader.

The trace line format is declared once, as a codec (STEP_RECORD) built
from the strict-JSON combinators in model, which renders each line as
json.dumps(..., ensure_ascii=False) writes it.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import (
    INT,
    SKILL_CALL,
    STR,
    ArrayOf,
    Operation,
    OperationType,
    PROCESSING_FLAGS,
    Program,
    ProgramCall,
    Record,
    Scene,
    SkillCall,
    SKILLS,
    at_label,
    parse_json,
)
from .solve import ScheduleGraph

FAILURE_REASONS = frozenset(
    {
        "missing_call",
        "wrong_location",
        "missing_device",
        "missing_point",
        "unknown_skill",
        "unbound_placeholder",
    }
)


class OperationRun(NamedTuple):
    op_id: str
    robot: str
    skills: tuple[SkillCall, ...]


class Failure(NamedTuple):
    op_id: str
    skill_index: int
    reason: str


class StepRecord(NamedTuple):
    step: int
    operations: tuple[OperationRun, ...]
    failures: tuple[Failure, ...]


class ExecutionOutcome(NamedTuple):
    trace: tuple[StepRecord, ...]
    status: frozenset[tuple[str, str]]
    executed_fully: bool


# A classified skill-call argument: (kind, name, machine_role). kind is
# "role" ("{machine_1}"), "device" ("{device:camera}"), "point"
# ("{point:Photo_Point}") or "literal"; name is the role, device or point
# name, or the literal text. machine_role is None except for a point, where
# it names the machine that must carry it: the first machine-role
# placeholder in the same call, else machine_1. They are read when an
# execution is linked, once per process, or a tree node is built, and after
# that only by _walk_by_argument, for an operation whose summary check fails.
SkillArg = tuple[str, str, str | None]

# The role placeholders a wrapper binds, by their text in a skill call.
_ROLE_OF = {f"{{{role}}}": role for role in ("robot", "machine_1", "machine_2", "workpiece")}


def _classify(arg: str) -> tuple[str, str]:
    """(kind, name) of one argument. A role is exactly a key of _ROLE_OF; a
    device or point reads "{device:NAME}" or "{point:NAME}", NAME non-empty
    and brace-free, and may end in one LF; anything else is a literal."""
    if arg in _ROLE_OF:
        return "role", _ROLE_OF[arg]
    body = arg[:-1] if arg.endswith("}\n") else arg
    kind, _, name = body[1:-1].partition(":")
    if (body[:1] == "{" and body[-1:] == "}" and kind in ("device", "point") and name
            and "{" not in name and "}" not in name):
        return kind, name
    return "literal", arg


def classify_args(args: tuple[str, ...]) -> tuple[SkillArg, ...]:
    """A skill call's arguments, classified in order; see SkillArg."""
    kinds = [_classify(arg) for arg in args]
    context = next(
        (name for kind, name in kinds if kind == "role" and name in ("machine_1", "machine_2")),
        "machine_1",
    )
    return tuple((kind, name, context if kind == "point" else None) for kind, name in kinds)


def needs(skills: Iterable[SkillCall]) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """What skills need of the scene to run: the devices they name, which
    the robot must carry, and the points they name on the machine_1 and on
    the machine_2 role, which those machines must carry."""
    args = [arg for skill in skills for arg in classify_args(skill.args)]
    return (
        frozenset(name for kind, name, _ in args if kind == "device"),
        frozenset(name for kind, name, role in args if kind == "point" and role == "machine_1"),
        frozenset(name for kind, name, role in args if kind == "point" and role == "machine_2"),
    )


class _Link:
    """An execution function, linked once per process: its skills with
    their classified arguments and a summary of what they require: whether
    every skill is in SKILLS, the roles the arguments name and their needs.
    Each skill's argument texts are its template, and constants holds the
    value of each argument that is no role: its name. calls memoizes
    resolve by the binding's items."""

    __slots__ = ("skills", "known", "roles", "devices", "points_1", "points_2", "constants",
                 "calls")

    def __init__(self, skills: tuple[SkillCall, ...]) -> None:
        self.skills = tuple((skill, classify_args(skill.args)) for skill in skills)
        args = [arg for skill, classified in self.skills for arg in zip(skill.args, classified)]
        self.known = all(skill.skill in SKILLS for skill in skills)
        self.roles = frozenset(name for _, (kind, name, _) in args if kind == "role")
        self.devices, self.points_1, self.points_2 = needs(skills)
        self.constants = {text: name for text, (kind, name, _) in args if kind != "role"}
        self.calls: dict[tuple[tuple[str, str], ...], tuple[SkillCall, ...]] = {}

    def resolve(
        self,
        binding: Mapping[str, str],
        devices: frozenset[str],
        points_1: frozenset[str],
        points_2: frozenset[str],
    ) -> tuple[SkillCall, ...] | None:
        """Every skill's call, or None unless the binding holds the summary's
        roles, the robot's devices its devices and each machine role's
        points its points. After that check the calls depend on the binding
        alone."""
        if not (self.known and binding.keys() >= self.roles and devices >= self.devices
                and self.points_1 <= points_1 and self.points_2 <= points_2):
            return None
        key = tuple(binding.items())
        calls = self.calls.get(key)
        if calls is None:
            values = {**self.constants, **{_TEXT_OF[role]: binding[role] for role in self.roles}}
            calls = self.calls[key] = tuple(
                [_call(skill.skill, tuple(map(values.__getitem__, skill.args)))
                 for skill, _ in self.skills]
            )
        return calls


@cache
def _link(skills: tuple[SkillCall, ...]) -> _Link:
    """The link of an execution function, memoized on its skills' content,
    never on its name, which one program may give to other skills than the
    next."""
    return _Link(skills)


# One SkillCall per distinct resolved call, shared by every tuple of calls
# that holds it: links keep their calls for the life of the process.
_call = cache(SkillCall)

# The failure reason of an argument that does not resolve, by its kind.
_UNRESOLVED = {"role": "unbound_placeholder", "device": "missing_device", "point": "missing_point"}

# A role's text in a skill call.
_TEXT_OF = {role: text for text, role in _ROLE_OF.items()}


def _walk_by_argument(
    link: _Link,
    binding: Mapping[str, str],
    devices: frozenset[str],
    points_1: frozenset[str],
    points_2: frozenset[str],
) -> tuple[tuple[SkillCall, ...], tuple[int, str] | None]:
    """Resolve link's skills one argument at a time, against what
    _Link.resolve checks: the executed calls, up to and including the first
    skill that fails, and that skill's (index, reason). The statement of
    which skill fails first, and why; it runs, unmemoized, only for an
    operation whose summary check fails."""
    executed: list[SkillCall] = []
    for index, (skill, args) in enumerate(link.skills):
        reason = None if skill.skill in SKILLS else "unknown_skill"
        for kind, name, machine_role in args if reason is None else ():
            if kind == "role":
                present = name in binding
            elif kind == "device":
                present = name in devices
            elif kind == "point":
                present = name in (points_2 if machine_role == "machine_2" else points_1)
            else:
                present = True
            if not present:
                reason = _UNRESOLVED[kind]
                break
        if reason is not None:
            executed.append(skill)
            return tuple(executed), (index, reason)
        resolved = tuple(binding[name] if kind == "role" else name for kind, name, _ in args)
        executed.append(_call(skill.skill, resolved))
    return tuple(executed), None


def _run_operation(
    op: Operation,
    call: ProgramCall | None,
    program: Program,
    links: Mapping[str, _Link],
    scene: Scene,
    locations: Mapping[str, str],
) -> tuple[OperationRun | None, Failure | None]:
    """Run op's skills. Returns its run (None when the program holds no
    call for it) and its first failure (None when it completed). An
    unknown robot has no devices and an unknown machine no points."""
    wrapper = program.wrappers.get(call.wrapper) if call is not None else None
    link = links.get(wrapper.execution) if wrapper is not None else None
    if link is None:
        return None, Failure(op.id, -1, "missing_call")
    binding = wrapper.binding
    robot_id = binding.get("robot", "")
    if locations.get(op.workpiece) != op.machine_1:
        return OperationRun(op.id, robot_id, ()), Failure(op.id, -1, "wrong_location")

    robot = scene.robot(robot_id) if robot_id else None
    devices = robot.devices if robot is not None else frozenset()
    machine_1 = scene.machine(binding.get("machine_1", op.machine_1))
    machine_2 = scene.machine(binding.get("machine_2", op.machine_1))
    points_1 = machine_1.points if machine_1 is not None else frozenset()
    points_2 = machine_2.points if machine_2 is not None else frozenset()
    calls = link.resolve(binding, devices, points_1, points_2)
    if calls is not None:
        return OperationRun(op.id, robot_id, calls), None
    calls, (index, reason) = _walk_by_argument(link, binding, devices, points_1, points_2)
    return OperationRun(op.id, robot_id, calls), Failure(op.id, index, reason)


def execute(
    schedule: ScheduleGraph,
    program: Program,
    scene: Scene,
    operations: Sequence[Operation],
) -> ExecutionOutcome:
    """Run the program symbolically under the schedule.

    operations supply the type, workpiece and machines of every scheduled
    id; effects (relocation, processing flags) follow the operation, while
    skill arguments resolve through the program's wrapper bindings. The
    outcome holds the trace, the status facts the run made true and
    whether every scheduled operation completed.
    """
    by_id = {op.id: op for op in operations}
    missing = sorted(set(schedule.start_steps) - set(by_id))
    if missing:
        raise ValueError(f"schedule covers operations without definitions: {missing}")
    preds = schedule.predecessors()
    calls: dict[str, ProgramCall] = {}
    for call in program.calls:
        calls.setdefault(call.op_id, call)
    links = {name: _link(skills) for name, skills in program.executions.items()}
    due_at: dict[int, list[str]] = {}
    for op_id, start in schedule.start_steps.items():
        due_at.setdefault(start, []).append(op_id)

    # Effects land only after every operation of a step ran, so the
    # operations of one step all read the locations as of its beginning.
    start = {w: machine.id for machine in scene.machines for w in machine.held_workpieces}
    locations = dict(start)
    flags: set[tuple[str, str]] = set()
    completed: set[str] = set()
    records: list[StepRecord] = []
    for step in range(schedule.makespan):
        due = sorted(due_at.get(step, ()))
        launched = [op_id for op_id in due if preds[op_id] <= completed]
        runs: list[OperationRun] = []
        failures: list[Failure] = []
        succeeded: list[Operation] = []
        for op_id in launched:
            op = by_id[op_id]
            run, failure = _run_operation(
                op, calls.get(op_id), program, links, scene, locations
            )
            if run is not None:
                runs.append(run)
            if failure is not None:
                failures.append(failure)
            else:
                succeeded.append(op)
        for op in succeeded:
            completed.add(op.id)
            if op.op_type is OperationType.TRANSPORT:
                locations[op.workpiece] = op.machine_2 or op.machine_1
            else:
                flags.add((op.workpiece, PROCESSING_FLAGS[op.op_type]))
        records.append(
            StepRecord(step=step, operations=tuple(runs), failures=tuple(failures))
        )
    moved = {(w, at_label(m)) for w, m in locations.items() if start[w] != m}
    return ExecutionOutcome(
        trace=tuple(records),
        status=frozenset(moved | flags),
        executed_fully=completed == set(schedule.start_steps),
    )


# ---------------------------------------------------------------------------
# trace files (JSON lines, one step per line)


OPERATION_RUN = Record(OperationRun, op_id=STR, robot=STR, skills=ArrayOf(SKILL_CALL))
FAILURE = Record(Failure, op_id=STR, skill_index=INT, reason=STR)
STEP_RECORD = Record(
    StepRecord, step=INT, operations=ArrayOf(OPERATION_RUN), failures=ArrayOf(FAILURE)
)


def trace_to_jsonl(trace: Sequence[StepRecord]) -> str:
    return "".join([STEP_RECORD.render(record, "") + "\n" for record in trace])


def parse_trace(text: str, path: str = "trace") -> tuple[StepRecord, ...]:
    """Step records, one per LF-ended line; U+2028 and the like stay in strings."""
    records: list[StepRecord] = []
    for i, line in enumerate(text.split("\n")):
        if line.strip():
            p = f"{path}:{i + 1}"
            records.append(STEP_RECORD.load(parse_json(line, p), p))
    return tuple(records)
