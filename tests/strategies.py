"""Hypothesis strategies and hand-rolled oracles shared by test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from conftest import FULL_KIT, make_machine, make_robot, make_workpiece
from shopfloor.bench import Tier, generate_instance
from shopfloor.executor import (
    ExecutionOutcome,
    Failure,
    OperationRun,
    StepRecord,
    classify_args,
)
from shopfloor.model import (
    PROCESSING_FLAGS,
    SKILLS,
    Allocation,
    Operation,
    OperationType,
    PrecedenceSet,
    Scene,
    SkillCall,
    at_label,
)

_TYPES = list(OperationType)


@st.composite
def plan_triples(draw, max_workpieces=4, max_ops_per=3, n_machines=4, n_robots=3):
    """A random, structurally valid (ops, alloc, prec, scene) quadruple.

    Machines may be shared or exclusive; transports occupy two machines;
    allocation can concentrate many ops on one robot. The operation list
    order doubles as the dispatch order.
    """
    machine_ids = [f"m{i}" for i in range(n_machines)]
    exclusive = [draw(st.booleans()) for _ in machine_ids]
    n_wp = draw(st.integers(1, max_workpieces))
    ops: list[Operation] = []
    chains: dict[str, tuple[str, ...]] = {}
    alloc: dict[str, str] = {}
    for j in range(n_wp):
        wp = f"w{j}"
        count = draw(st.integers(0, max_ops_per))
        chain = []
        for i in range(count):
            op_id = f"o{j}_{i}"
            op_type = draw(st.sampled_from(_TYPES))
            m1 = draw(st.sampled_from(machine_ids))
            m2 = None
            if op_type is OperationType.TRANSPORT:
                m2 = draw(st.sampled_from([m for m in machine_ids if m != m1]))
            ops.append(Operation(id=op_id, op_type=op_type, workpiece=wp,
                                 machine_1=m1, machine_2=m2))
            alloc[op_id] = draw(st.sampled_from([f"r{k}" for k in range(n_robots)]))
            chain.append(op_id)
        chains[wp] = tuple(chain)
    order = draw(st.permutations(ops))
    machines = tuple(
        make_machine(mid, name=f"station {mid}", exclusive=excl,
                     held=[f"w{j}" for j in range(n_wp)] if mid == "m0" else ())
        for mid, excl in zip(machine_ids, exclusive)
    )
    scene = Scene(
        robots=tuple(make_robot(f"r{k}", devices=FULL_KIT, reachable=machine_ids)
                     for k in range(n_robots)),
        machines=machines,
        workpieces=tuple(make_workpiece(f"w{j}", states=()) for j in range(n_wp)),
    )
    return tuple(order), Allocation(by_op=alloc), PrecedenceSet(chains=chains), scene


def _ground_truth_triple(tier, seed):
    task = generate_instance(tier, seed)
    gt = task.ground_truth
    return gt.operations, gt.allocation, gt.precedence, task.scene


def generated_triples(max_seed=30):
    """The (ops, alloc, prec, scene) of a generated task's ground truth, its
    operations in stored (start-step) order."""
    return st.builds(_ground_truth_triple, st.sampled_from(list(Tier)), st.integers(0, max_seed))


def predecessors_by_rivals(schedule):
    """Oracle for ScheduleGraph.predecessors: the chain predecessor and every
    resource rival that starts earlier, read from the pairwise arcs (of two
    rivals on one step, the smaller id waits for the larger)."""
    steps = schedule.start_steps
    preds = {op: set(chain_pred) for op, chain_pred in schedule.graph.preds.items()}
    for arc in schedule.graph.disjunctive:
        if steps[arc.a] < steps[arc.b]:
            preds[arc.b].add(arc.a)
        else:
            preds[arc.a].add(arc.b)
    return preds


def transitive_closure(relation):
    """Every operation's ancestors under a predecessor relation (acyclic)."""
    closed: dict[str, frozenset[str]] = {}

    def ancestors(op):
        if op not in closed:
            closed[op] = frozenset().union(*({p} | ancestors(p) for p in relation[op]))
        return closed[op]

    return {op: ancestors(op) for op in relation}


def earliest_clash_by_arcs(graph, start_steps):
    """Oracle for the clash rule: the message naming the earliest (step, a, b)
    over the disjunctive arcs whose ends share a step, or None."""
    clashes = [
        (start_steps[arc.a], arc.a, arc.b)
        for arc in graph.disjunctive
        if start_steps[arc.a] == start_steps[arc.b]
    ]
    if not clashes:
        return None
    step, a, b = min(clashes)
    return f"operations '{a}' and '{b}' share step {step} but compete for a resource"


def optimal_by_enumeration(graph):
    """Independent oracle for tiny instances: try every start-step assignment
    with steps below the op count, keep the feasible minimum; ties resolved
    by the smallest assignment vector in id order. Returns (makespan, steps).
    """
    from itertools import product

    ops = sorted(graph.op_ids)
    n = len(ops)
    if n == 0:
        return 0, {}
    conj = [(u, v) for chain in graph.chains for u, v in zip(chain, chain[1:])]
    disj = [(arc.a, arc.b) for arc in graph.disjunctive]
    best = None
    for assignment in product(range(n), repeat=n):
        steps = dict(zip(ops, assignment))
        if any(steps[v] < steps[u] + 1 for u, v in conj):
            continue
        if any(steps[a] == steps[b] for a, b in disj):
            continue
        cand = (max(assignment) + 1, assignment)
        if best is None or cand < best:
            best = cand
    span, assignment = best
    return span, dict(zip(ops, assignment))


def optimal_makespan_by_search(graph):
    """Independent makespan oracle for generated instances: a memo over
    completed sets that launches, at each step, every maximal set of ready
    operations with no disjunctive arc between them. Maximal sets suffice:
    under unit durations, starting a ready operation that conflicts with
    nothing launched never delays another one."""
    from functools import lru_cache

    rivals = {op: set() for op in graph.op_ids}
    for arc in graph.disjunctive:
        rivals[arc.a].add(arc.b)
        rivals[arc.b].add(arc.a)
    pred = {v: u for chain in graph.chains for u, v in zip(chain, chain[1:])}
    everything = frozenset(graph.op_ids)

    def maximal_sets(ready):
        sets = [frozenset()]
        for op in ready:
            sets += [s | {op} for s in sets if not rivals[op] & s]
        return [s for s in sets if all(op in s or rivals[op] & s for op in ready)]

    @lru_cache(maxsize=None)
    def rest(done):
        if done == everything:
            return 0
        ready = [
            op for op in graph.op_ids
            if op not in done and (op not in pred or pred[op] in done)
        ]
        return 1 + min(rest(done | s) for s in maximal_sets(ready))

    return rest(frozenset())


def execute_by_argument(schedule, program, scene, operations):
    """Oracle for executor.execute: resolves every argument of every skill
    of every operation it runs, linking and sharing nothing. Effects land
    when a step ends; an operation launches when its schedule predecessors
    completed; an operation's calls stop at its first failing skill. The
    status is worked out here, from the final locations and flags and the
    machines that hold each workpiece in the scene."""
    unresolved = {"role": "unbound_placeholder", "device": "missing_device",
                  "point": "missing_point"}

    def run_operation(op, call, locations):
        wrapper = program.wrappers.get(call.wrapper) if call is not None else None
        skills = program.executions.get(wrapper.execution) if wrapper is not None else None
        if skills is None:
            return None, Failure(op.id, -1, "missing_call")
        binding = wrapper.binding
        robot_id = binding.get("robot", "")
        if locations.get(op.workpiece) != op.machine_1:
            return OperationRun(op.id, robot_id, ()), Failure(op.id, -1, "wrong_location")
        robot = scene.robot(robot_id) if robot_id else None
        devices = robot.devices if robot is not None else frozenset()
        executed = []
        for index, skill in enumerate(skills):
            reason = None if skill.skill in SKILLS else "unknown_skill"
            resolved = []
            for kind, name, machine_role in classify_args(skill.args) if reason is None else ():
                if kind == "role":
                    present = name in binding
                elif kind == "device":
                    present = name in devices
                elif kind == "point":
                    machine = scene.machine(binding.get(machine_role, op.machine_1))
                    present = machine is not None and name in machine.points
                else:
                    present = True
                if not present:
                    reason = unresolved[kind]
                    break
                resolved.append(binding[name] if kind == "role" else name)
            if reason is not None:
                executed.append(skill)
                return OperationRun(op.id, robot_id, tuple(executed)), Failure(op.id, index, reason)
            executed.append(SkillCall(skill=skill.skill, args=tuple(resolved)))
        return OperationRun(op.id, robot_id, tuple(executed)), None

    by_id = {op.id: op for op in operations}
    preds = schedule.predecessors()
    calls = {}
    for call in program.calls:
        calls.setdefault(call.op_id, call)
    start = {}
    for machine in scene.machines:
        for w in machine.held_workpieces:
            start[w] = machine.id
    locations = dict(start)
    flags = {}
    completed = set()
    records = []
    for step in range(schedule.makespan):
        due = sorted(op_id for op_id, start in schedule.start_steps.items() if start == step)
        runs, failures, succeeded = [], [], []
        for op_id in due:
            if not preds[op_id] <= completed:
                continue
            run, failure = run_operation(by_id[op_id], calls.get(op_id), locations)
            if run is not None:
                runs.append(run)
            if failure is not None:
                failures.append(failure)
            else:
                succeeded.append(by_id[op_id])
        for op in succeeded:
            completed.add(op.id)
            if op.op_type is OperationType.TRANSPORT:
                locations[op.workpiece] = op.machine_2 or op.machine_1
            else:
                flags.setdefault(op.workpiece, set()).add(PROCESSING_FLAGS[op.op_type])
        records.append(StepRecord(step=step, operations=tuple(runs), failures=tuple(failures)))
    status = {(w, flag) for w, collected in flags.items() for flag in collected}
    for w, machine_id in locations.items():
        if start.get(w) != machine_id:
            status.add((w, at_label(machine_id)))
    return ExecutionOutcome(
        trace=tuple(records),
        status=frozenset(status),
        executed_fully=completed == set(schedule.start_steps),
    )
